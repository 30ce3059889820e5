package dataset

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"dsks/internal/geo"
	"dsks/internal/graph"
	"dsks/internal/obj"
)

func TestGenerateNetworkConnectedAndSized(t *testing.T) {
	for _, factor := range []float64{1.02, 1.5, 2.5} {
		g, err := GenerateNetwork(NetworkConfig{Nodes: 400, EdgeFactor: factor, Jitter: 0.3, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if !g.Connected() {
			t.Fatalf("factor %v: network disconnected", factor)
		}
		got := float64(g.NumEdges()) / float64(g.NumNodes())
		if math.Abs(got-factor) > 0.25 {
			t.Errorf("factor %v: achieved %v", factor, got)
		}
		// Coordinates inside the world box.
		mbr := g.MBR()
		if mbr.MinX < 0 || mbr.MaxX > geo.WorldMax || mbr.MinY < 0 || mbr.MaxY > geo.WorldMax {
			t.Errorf("nodes outside world: %+v", mbr)
		}
	}
}

func TestGenerateNetworkDeterministic(t *testing.T) {
	a, err := GenerateNetwork(NetworkConfig{Nodes: 100, EdgeFactor: 1.4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateNetwork(NetworkConfig{Nodes: 100, EdgeFactor: 1.4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() {
		t.Fatal("same seed produced different networks")
	}
	c, err := GenerateNetwork(NetworkConfig{Nodes: 100, EdgeFactor: 1.4, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if c.NumEdges() == a.NumEdges() {
		// Edge counts may coincide; check weights differ somewhere.
		same := true
		for i := 0; i < a.NumEdges() && i < c.NumEdges(); i++ {
			if a.Edge(0).Weight != c.Edge(0).Weight {
				same = false
				break
			}
			break
		}
		_ = same // weight comparison is best-effort; counts are the real check
	}
}

func TestGenerateNetworkRejectsTiny(t *testing.T) {
	if _, err := GenerateNetwork(NetworkConfig{Nodes: 2}); err == nil {
		t.Error("2-node network accepted")
	}
}

func TestGenerateObjectsPlacement(t *testing.T) {
	g, err := GenerateNetwork(NetworkConfig{Nodes: 100, EdgeFactor: 1.5, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	col, err := GenerateObjects(g, ObjectConfig{
		NumObjects: 2000, VocabSize: 50, KeywordsPerObject: 5, ZipfS: 1.1, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if col.Len() != 2000 {
		t.Fatalf("Len = %d", col.Len())
	}
	for i := 0; i < col.Len(); i++ {
		o := col.Get(obj.ID(i))
		e := g.Edge(o.Pos.Edge)
		if o.Pos.Offset < 0 || o.Pos.Offset > e.Length {
			t.Fatalf("object %d offset %v outside edge length %v", i, o.Pos.Offset, e.Length)
		}
		if len(o.Terms) == 0 {
			t.Fatalf("object %d has no keywords", i)
		}
	}
	avg := col.AvgTermsPerObject()
	if avg < 2 || avg > 8 {
		t.Errorf("avg keywords = %v, want near 5", avg)
	}
}

func TestZipfSkew(t *testing.T) {
	// Higher z concentrates mass on fewer terms.
	g, err := GenerateNetwork(NetworkConfig{Nodes: 64, EdgeFactor: 1.3, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	shareTop := func(z float64) float64 {
		col, err := GenerateObjects(g, ObjectConfig{
			NumObjects: 3000, VocabSize: 200, KeywordsPerObject: 3, ZipfS: z, Seed: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		freq := col.TermFrequencies(200)
		var top, total int64
		for i, f := range freq {
			total += f
			if i < 10 {
				top += f
			}
		}
		// TermIDs are ranks only for Zipf draws; recompute top-10 by value.
		top = 0
		for _, tid := range obj.TopK(freq, 10) {
			top += freq[tid]
		}
		return float64(top) / float64(total)
	}
	lo, hi := shareTop(0.9), shareTop(1.3)
	if hi <= lo {
		t.Errorf("top-10 share did not grow with z: %v vs %v", lo, hi)
	}
}

func TestGeneratePresets(t *testing.T) {
	for _, p := range []Preset{PresetSYN, PresetNA, PresetTW, PresetSF} {
		ds, err := GeneratePreset(p, 500, 1)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		st := ds.Stats()
		if st.Nodes == 0 || st.Edges == 0 || st.Objects == 0 {
			t.Fatalf("%s: degenerate stats %+v", p, st)
		}
		if !ds.Graph.Connected() {
			t.Fatalf("%s: disconnected", p)
		}
	}
	if _, err := GeneratePreset("BOGUS", 1, 1); err == nil {
		t.Error("unknown preset accepted")
	}
}

func TestPresetShapeRatios(t *testing.T) {
	// The analogue datasets must preserve the edge/node ratios of Table 2.
	na, err := GeneratePreset(PresetNA, 200, 2)
	if err != nil {
		t.Fatal(err)
	}
	tw, err := GeneratePreset(PresetTW, 200, 2)
	if err != nil {
		t.Fatal(err)
	}
	naR := float64(na.Graph.NumEdges()) / float64(na.Graph.NumNodes())
	twR := float64(tw.Graph.NumEdges()) / float64(tw.Graph.NumNodes())
	if naR >= twR {
		t.Errorf("NA ratio %v should be below TW ratio %v", naR, twR)
	}
}

func TestGenerateWorkload(t *testing.T) {
	ds, err := GeneratePreset(PresetSYN, 1000, 3)
	if err != nil {
		t.Fatal(err)
	}
	ws, err := GenerateWorkload(ds.Objects, ds.VocabSize, WorkloadConfig{
		NumQueries: 100, Keywords: 3, DeltaMaxPerKeyword: 500, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 100 {
		t.Fatalf("workload size %d", len(ws))
	}
	for _, q := range ws {
		if len(q.Terms) == 0 || len(q.Terms) > 3 {
			t.Fatalf("query keywords %v", q.Terms)
		}
		if q.DeltaMax != 1500 {
			t.Fatalf("DeltaMax = %v, want 1500", q.DeltaMax)
		}
		for i := 1; i < len(q.Terms); i++ {
			if q.Terms[i] <= q.Terms[i-1] {
				t.Fatal("query terms not normalized")
			}
		}
	}
	// Query keywords must skew toward frequent terms.
	freq := ds.Objects.TermFrequencies(ds.VocabSize)
	top := obj.TopK(freq, ds.VocabSize/10)
	inTop := make(map[obj.TermID]bool, len(top))
	for _, tid := range top {
		inTop[tid] = true
	}
	hits, total := 0, 0
	for _, q := range ws {
		for _, tid := range q.Terms {
			total++
			if inTop[tid] {
				hits++
			}
		}
	}
	if float64(hits)/float64(total) < 0.5 {
		t.Errorf("only %d/%d query keywords in the top decile; workload not frequency-weighted", hits, total)
	}
}

func TestGenerateWorkloadValidation(t *testing.T) {
	ds, err := GeneratePreset(PresetSYN, 2000, 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := GenerateWorkload(ds.Objects, ds.VocabSize, WorkloadConfig{NumQueries: 0}); err == nil {
		t.Error("empty workload accepted")
	}
	if _, err := GenerateWorkload(obj.NewCollection(), 10, WorkloadConfig{NumQueries: 5}); err == nil {
		t.Error("empty collection accepted")
	}
}

// TestGeneratedDatasetDigest pins the bytes of the benchmark's dataset:
// bench/ derives its op sequence and its answer digests from
// GeneratePreset(NA, 20, 1) and GenerateWorkload over it, so a change to a
// generator, to obj.NormalizeTerms or to the per-edge order of the
// collection must not move them. The digests were recorded at the commit
// before the build path dropped its closure sorts (PR 24).
func TestGeneratedDatasetDigest(t *testing.T) {
	ds, err := GeneratePreset(PresetNA, 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	ws, err := GenerateWorkload(ds.Objects, ds.VocabSize, WorkloadConfig{
		NumQueries: 6000, Keywords: 2, DeltaMaxPerKeyword: 500, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}

	h := sha256.New()
	put := func(vs ...uint64) {
		var b [8]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], v)
			h.Write(b[:])
		}
	}
	putTerms := func(ts []obj.TermID) {
		put(uint64(len(ts)))
		for _, tid := range ts {
			put(uint64(tid))
		}
	}
	sum := func() string {
		s := hex.EncodeToString(h.Sum(nil)[:8])
		h.Reset()
		return s
	}
	got := map[string]string{}

	g := ds.Graph
	for i := 0; i < g.NumNodes(); i++ {
		p := g.Node(graph.NodeID(i)).Loc
		put(math.Float64bits(p.X), math.Float64bits(p.Y))
	}
	for i := 0; i < g.NumEdges(); i++ {
		e := g.Edge(graph.EdgeID(i))
		put(uint64(e.N1), uint64(e.N2), math.Float64bits(e.Length), math.Float64bits(e.Weight))
	}
	got["network"] = sum()

	for i := 0; i < ds.Objects.Len(); i++ {
		o := ds.Objects.Get(obj.ID(i))
		put(uint64(o.Pos.Edge), math.Float64bits(o.Pos.Offset))
		putTerms(o.Terms)
	}
	got["objects"] = sum()

	for _, e := range ds.Objects.Edges() {
		ids := ds.Objects.OnEdge(e)
		put(uint64(e), uint64(len(ids)))
		for _, id := range ids {
			put(uint64(id))
		}
	}
	got["edge order"] = sum()

	for _, q := range ws {
		put(uint64(q.Pos.Edge), math.Float64bits(q.Pos.Offset), math.Float64bits(q.DeltaMax))
		putTerms(q.Terms)
	}
	got["queries"] = sum()

	want := map[string]string{
		"network":    "914d2ca0908f1059",
		"objects":    "99072acd49b459e8",
		"edge order": "a8be9841473194e4",
		"queries":    "e90e9f143f3c7f3e",
	}
	for part, w := range want {
		if got[part] != w {
			t.Errorf("%s digest = %q, want %q", part, got[part], w)
		}
	}
	if ds.Objects.Len() != 110000 || ds.VocabSize != 10400 || g.NumNodes() != 8836 {
		t.Errorf("NA/20 shape: %d objects, %d terms, %d nodes", ds.Objects.Len(), ds.VocabSize, g.NumNodes())
	}
}
