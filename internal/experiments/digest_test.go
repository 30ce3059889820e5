package experiments

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// countDigestFile holds every count series of every figure and ablation at
// testCfg, one line per series: figure, name, then the (x, y) points with
// their shortest exact decimal form. Lines opening with '#' say why the
// series last moved; the comparison skips them.
const countDigestFile = "testdata/count_digest.txt"

// countKinds are the name prefixes (before the first '/') of the series
// that hold counts: disk reads, candidates, sizes, false hits, records
// loaded, distances computed, settled nodes, objective values.
var countKinds = map[string]bool{
	"edges": true, "objects": true, "size": true, "io": true, "cand": true,
	"hits": true, "compact": true, "flat": true, "records": true, "f": true,
	"minpair": true, "dist": true, "settled": true,
}

// counted reports whether a series holds a count rather than a wall-clock
// time: Figures 9 and 10 name their false-hit and disk-read series by the
// variant alone; everywhere else a series outside countKinds is a latency,
// a build time or a throughput.
func counted(fig, name string) bool {
	kind, _, _ := strings.Cut(name, "/")
	if kind == "time" || kind == "build" {
		return false
	}
	return countKinds[kind] || fig == "9" || fig == "10"
}

// TestExperimentCountDigest runs every figure and ablation at testCfg and
// compares every count series with the recorded ones, bit for bit. The
// counts repeat exactly for a seed, so a change that only moves code
// leaves the file as it is. On a mismatch the test logs this build's
// digest in full; to record a deliberate change, copy the lines that
// moved from that output into testdata/count_digest.txt and say why in
// its '#' lines.
func TestExperimentCountDigest(t *testing.T) {
	var b strings.Builder
	for _, f := range Figures {
		r, err := f.Run(testCfg())
		if err != nil {
			t.Fatalf("%s: %v", f.ID, err)
		}
		names := make([]string, 0, len(r.Series))
		for name := range r.Series {
			if counted(f.ID, name) {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		for _, name := range names {
			s := r.Series[name]
			fmt.Fprintf(&b, "%s\t%s", f.ID, name)
			for i := range s.Y {
				fmt.Fprintf(&b, "\t%s %s", strconv.FormatFloat(s.X[i], 'g', -1, 64), strconv.FormatFloat(s.Y[i], 'g', -1, 64))
			}
			b.WriteByte('\n')
		}
	}
	got := b.String()
	raw, err := os.ReadFile(countDigestFile)
	if err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	for _, line := range strings.SplitAfter(string(raw), "\n") {
		if !strings.HasPrefix(line, "#") {
			want.WriteString(line)
		}
	}
	if got != want.String() {
		t.Logf("this build's %s:\n%s", countDigestFile, got)
		gl, wl := strings.Split(got, "\n"), strings.Split(want.String(), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("%s series %d:\n got  %s\n want %s", countDigestFile, i+1, g, w)
			}
		}
	}
}
