// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 5) over the synthetic dataset analogues: the index
// comparison figures (6–10) and the diversified search figures (11–16),
// plus the Table 2 statistics. Each driver returns both a printable table
// and named numeric series so tests and benches can assert the paper's
// qualitative shape (who wins, by what factor, where trends bend).
package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// Figure is one regenerable table, figure or ablation.
type Figure struct {
	ID  string
	Run func(Config) (*Result, error)
}

// Figures lists every driver, in the order `expts -fig all` runs them.
var Figures = []Figure{
	{"table2", Table2}, {"6", Fig6}, {"7", Fig7}, {"8", Fig8}, {"9", Fig9}, {"10", Fig10},
	{"11", Fig11}, {"12", Fig12}, {"13", Fig13}, {"14", Fig14}, {"15", Fig15},
	{"16a", Fig16a}, {"16b", Fig16b}, {"16c", Fig16c}, {"16d", Fig16d},
	// Ablations of the design choices (not figures of the paper).
	{"buffer", ExtraBufferSweep}, {"quality", ExtraQuality}, {"throughput", ExtraThroughput},
	{"ablation-pruning", AblationPruning}, {"ablation-partition", AblationPartition},
	{"ablation-dijkstra", AblationDijkstra}, {"ablation-compaction", AblationCompaction},
	{"ablation-selectivity", AblationSelectivity}, {"ablation-c1", AblationC1},
	{"ablation-oracle", AblationOracle},
}

// Config controls the scale and workload of an experiment run.
type Config struct {
	// Scale divides the paper-scale dataset sizes (see dataset.GeneratePreset).
	// Larger is smaller/faster. Zero defaults to 400 (seconds-scale runs);
	// cmd/expts defaults to 100 for closer-to-paper behaviour.
	Scale int
	// Queries is the workload size (paper: 500). Zero defaults to 40.
	Queries int
	// Seed drives the dataset and workload generation.
	Seed int64
	// IOLatency injects a per-miss disk latency so that response times are
	// I/O-dominated like the paper's testbed. Zero disables.
	IOLatency time.Duration
	// Out receives the printed tables; nil discards them.
	Out io.Writer
}

func (c Config) withDefaults() Config {
	if c.Scale <= 0 {
		c.Scale = 400
	}
	if c.Queries <= 0 {
		c.Queries = 40
	}
	if c.Out == nil {
		c.Out = io.Discard
	}
	return c
}

// Table is a printable experiment result.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// Fprint renders the table in aligned columns.
func (t *Table) Fprint(w io.Writer) {
	if w == nil {
		return
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	fmt.Fprintf(w, "== %s ==\n", t.Title)
	printRow := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintln(w, strings.Join(parts, "  "))
	}
	printRow(t.Header)
	for _, row := range t.Rows {
		printRow(row)
	}
	fmt.Fprintln(w)
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// Series is one named line of a figure: parallel X/Y values.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Append adds a point.
func (s *Series) Append(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// Mean returns the average Y value (0 for empty series).
func (s *Series) Mean() float64 {
	if len(s.Y) == 0 {
		return 0
	}
	total := 0.0
	for _, y := range s.Y {
		total += y
	}
	return total / float64(len(s.Y))
}

// Result bundles the printable table with the numeric series of a figure.
type Result struct {
	Table  *Table
	Series map[string]*Series
}

func newResult(title string, header ...string) *Result {
	return &Result{
		Table:  &Table{Title: title, Header: header},
		Series: make(map[string]*Series),
	}
}

func (r *Result) series(name string) *Series {
	s, ok := r.Series[name]
	if !ok {
		s = &Series{Name: name}
		r.Series[name] = s
	}
	return s
}

func (r *Result) addRow(cells ...string) { r.Table.Rows = append(r.Table.Rows, cells) }

func ms(d time.Duration) string   { return fmt.Sprintf("%.2f", float64(d.Microseconds())/1000) }
func msf(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
func mb(bytes int64) string       { return fmt.Sprintf("%.2f", float64(bytes)/(1<<20)) }
func f1(v float64) string         { return fmt.Sprintf("%.1f", v) }
func i64(v int64) string          { return fmt.Sprintf("%d", v) }

// sparkLevels are the eight block glyphs of a unicode sparkline.
var sparkLevels = []rune("▁▂▃▄▅▆▇█")

// Spark renders the series' Y values as a unicode sparkline, scaled to the
// series' own min/max (a flat series renders as mid-level blocks).
func (s *Series) Spark() string {
	if len(s.Y) == 0 {
		return ""
	}
	lo, hi := s.Y[0], s.Y[0]
	for _, y := range s.Y {
		if y < lo {
			lo = y
		}
		if y > hi {
			hi = y
		}
	}
	out := make([]rune, len(s.Y))
	for i, y := range s.Y {
		level := len(sparkLevels) / 2
		if hi > lo {
			level = int((y - lo) / (hi - lo) * float64(len(sparkLevels)-1))
		}
		out[i] = sparkLevels[level]
	}
	return string(out)
}

// FprintSparks prints one sparkline per multi-point series, sorted by
// name, for quick trend reading in terminals.
func (r *Result) FprintSparks(w io.Writer) {
	if w == nil {
		return
	}
	names := make([]string, 0, len(r.Series))
	for n, s := range r.Series {
		if len(s.Y) >= 2 {
			names = append(names, n)
		}
	}
	if len(names) == 0 {
		return
	}
	sort.Strings(names)
	width := 0
	for _, n := range names {
		if len(n) > width {
			width = len(n)
		}
	}
	for _, n := range names {
		s := r.Series[n]
		fmt.Fprintf(w, "  %s  %s  (%.3g → %.3g)\n", pad(n, width), s.Spark(), s.Y[0], s.Y[len(s.Y)-1])
	}
	fmt.Fprintln(w)
}
