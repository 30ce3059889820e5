package sig

import (
	"context"
	"crypto/sha256"
	"fmt"

	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"dsks/internal/dataset"
	"dsks/internal/geo"
	"dsks/internal/graph"
	"dsks/internal/index"
	"dsks/internal/invindex"
	"dsks/internal/obj"
	"dsks/internal/storage"
)

func testGraph(t testing.TB, n int, seed int64) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := graph.New()
	for i := 0; i < n; i++ {
		g.AddNode(geo.Point{X: rng.Float64() * geo.WorldMax, Y: rng.Float64() * geo.WorldMax})
	}
	for i := 1; i < n; i++ {
		if _, err := g.AddEdge(graph.NodeID(i-1), graph.NodeID(i), 1+rng.Float64()*5); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		a, b := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
		if a != b {
			_, _ = g.AddEdge(a, b, 1+rng.Float64()*5)
		}
	}
	g.Freeze()
	return g
}

func TestLayoutBasics(t *testing.T) {
	g := testGraph(t, 30, 1)
	l := NewLayout(g)
	if l.NumEdges() != g.NumEdges() {
		t.Fatalf("NumEdges = %d", l.NumEdges())
	}
	if int(l.NumSlots()) != g.NumEdges() {
		t.Fatalf("NumSlots = %d before partitioning", l.NumSlots())
	}
	// Every edge has a unique slot.
	seen := map[int32]bool{}
	for e := 0; e < g.NumEdges(); e++ {
		start, count := l.Slots(graph.EdgeID(e))
		if count != 1 {
			t.Fatalf("edge %d has %d slots", e, count)
		}
		if seen[start] {
			t.Fatalf("slot %d reused", start)
		}
		seen[start] = true
	}
}

func TestLayoutVirtualEdges(t *testing.T) {
	g := testGraph(t, 20, 2)
	l := NewLayout(g)
	l.SetVirtualEdges(graph.EdgeID(3), 4)
	l.Finalize()
	if int(l.NumSlots()) != g.NumEdges()+3 {
		t.Fatalf("NumSlots = %d", l.NumSlots())
	}
	_, count := l.Slots(graph.EdgeID(3))
	if count != 4 {
		t.Fatalf("edge 3 slots = %d", count)
	}
	if l.VirtualEdges(graph.EdgeID(3)) != 4 {
		t.Fatal("VirtualEdges wrong")
	}
	// Slots remain dense and non-overlapping.
	total := int32(0)
	for e := 0; e < g.NumEdges(); e++ {
		_, c := l.Slots(graph.EdgeID(e))
		total += c
	}
	if total != l.NumSlots() {
		t.Fatalf("slot total %d vs %d", total, l.NumSlots())
	}
}

func TestLayoutKDLocality(t *testing.T) {
	// Adjacent KD ranks should be spatially closer on average than random
	// pairs — the property that makes compaction work.
	g := testGraph(t, 200, 3)
	l := NewLayout(g)
	var adjSum, randSum float64
	rng := rand.New(rand.NewSource(4))
	n := l.NumEdges()
	for i := 0; i+1 < n; i++ {
		a, b := l.kdOrder[i], l.kdOrder[i+1]
		adjSum += g.EdgeCenter(a).Dist(g.EdgeCenter(b))
		c, d := l.kdOrder[rng.Intn(n)], l.kdOrder[rng.Intn(n)]
		randSum += g.EdgeCenter(c).Dist(g.EdgeCenter(d))
	}
	if adjSum >= randSum {
		t.Errorf("KD order has no locality: adjacent %g vs random %g", adjSum, randSum)
	}
}

func TestTermSignatureTest(t *testing.T) {
	s := NewTermSignature(100, []int32{5, 5, 50, 99})
	for _, pos := range []int32{5, 50, 99} {
		if !s.Test(pos) {
			t.Errorf("bit %d should be set", pos)
		}
	}
	for _, pos := range []int32{0, 6, 98} {
		if s.Test(pos) {
			t.Errorf("bit %d should be clear", pos)
		}
	}
	if s.Ones() != 3 {
		t.Errorf("Ones = %d (duplicates not removed?)", s.Ones())
	}
	if !s.TestRange(4, 3) || s.TestRange(6, 10) || !s.TestRange(95, 5) {
		t.Error("TestRange wrong")
	}
}

func TestSignatureCompaction(t *testing.T) {
	// A clustered signature must compact far below a flat bitmap; a dense
	// one compacts to nearly nothing.
	n := int32(1 << 14)
	allOnes := make([]int32, n)
	for i := range allOnes {
		allOnes[i] = int32(i)
	}
	dense := NewTermSignature(n, allOnes)
	if bits := dense.CompactedBits(); bits != 2 {
		t.Errorf("all-ones compacts to %d bits, want 2", bits)
	}
	empty := NewTermSignature(n, nil)
	if bits := empty.CompactedBits(); bits != 2 {
		t.Errorf("all-zero compacts to %d bits, want 2", bits)
	}
	// One cluster of 128 bits.
	var cluster []int32
	for i := int32(4096); i < 4096+128; i++ {
		cluster = append(cluster, i)
	}
	clustered := NewTermSignature(n, cluster)
	if bits := clustered.CompactedBits(); bits >= int64(n) {
		t.Errorf("clustered signature (%d bits) no smaller than flat bitmap", bits)
	}
	// Scattered bits compact worse than clustered ones.
	var scattered []int32
	for i := 0; i < 128; i++ {
		scattered = append(scattered, int32(i*128))
	}
	sc := NewTermSignature(n, scattered)
	if sc.CompactedBits() <= clustered.CompactedBits() {
		t.Errorf("scattered (%d) should cost more than clustered (%d)",
			sc.CompactedBits(), clustered.CompactedBits())
	}
}

func TestCompactedBitsMatchesNaiveTree(t *testing.T) {
	// Property: CompactedBits equals a naive recursive tree computation.
	f := func(raw []uint16, nn uint16) bool {
		n := int32(nn%512) + 2
		var set []int32
		for _, r := range raw {
			set = append(set, int32(r)%n)
		}
		s := NewTermSignature(n, set)
		bitmap := make([]bool, n)
		for _, p := range set {
			bitmap[p] = true
		}
		var naive func(lo, hi int32) int64
		naive = func(lo, hi int32) int64 {
			all, any := true, false
			for i := lo; i < hi; i++ {
				if bitmap[i] {
					any = true
				} else {
					all = false
				}
			}
			if !any || all {
				return 2
			}
			mid := (lo + hi) / 2
			return 2 + naive(lo, mid) + naive(mid, hi)
		}
		return s.CompactedBits() == naive(0, n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// compactedBitsReference is the definition CompactedBits had before it
// recursed over sub-slices: every node counts its ones with two searches
// over the whole set.
func compactedBitsReference(n int32, set []int32) int64 {
	rangeOnes := func(lo, hi int32) int32 {
		i := sort.Search(len(set), func(i int) bool { return set[i] >= lo })
		j := sort.Search(len(set), func(i int) bool { return set[i] >= hi })
		return int32(j - i)
	}
	var walk func(lo, hi int32) int64
	walk = func(lo, hi int32) int64 {
		ones := rangeOnes(lo, hi)
		if ones == 0 || ones == hi-lo {
			return 2
		}
		mid := (lo + hi) / 2
		return 2 + walk(lo, mid) + walk(mid, hi)
	}
	if n == 0 {
		return 0
	}
	return walk(0, n)
}

func TestCompactedBitsMatchesReference(t *testing.T) {
	check := func(name string, n int32, positions []int32) {
		t.Helper()
		s := NewTermSignature(n, positions)
		if got, want := s.CompactedBits(), compactedBitsReference(n, s.set); got != want {
			t.Errorf("%s: n=%d, %d ones: CompactedBits = %d, reference %d", name, n, len(s.set), got, want)
		}
	}
	full := make([]int32, 1000)
	for i := range full {
		full[i] = int32(i)
	}
	check("no slots", 0, nil)
	check("one slot, clear", 1, nil)
	check("one slot, set", 1, []int32{0})
	check("empty", 1000, nil)
	check("full", 1000, full)
	check("full but one", 1000, full[1:])
	for _, bit := range []int32{0, 1, 499, 500, 998, 999} {
		check("single bit", 1000, []int32{bit})
	}
	check("positions past the last slot", 10, []int32{3, 4, 10, 12})

	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		n := int32(1 + rng.Intn(20000))
		positions := make([]int32, rng.Intn(int(n)+1))
		// Runs of neighbours as well as scattered bits, so that uniform
		// subtrees of ones occur at every depth.
		for i := 0; i < len(positions); {
			at, run := rng.Int31n(n), 1+rng.Intn(64)
			for ; run > 0 && i < len(positions) && at < n; run, i, at = run-1, i+1, at+1 {
				positions[i] = at
			}
		}
		check("random", n, positions)
	}
}

// TestBuildSIFSignsTheSlotsOfItsObjects holds BuildSIF, which collects a
// term's slots already in order, to the definition it had when it collected
// them edge by edge and sorted: a term is signed if its inverted file is
// longer than a page, and its set bits are the slots of the (virtual) edges
// that carry an object with it.
func TestBuildSIFSignsTheSlotsOfItsObjects(t *testing.T) {
	ds, err := dataset.GeneratePreset(dataset.PresetNA, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	g, col := ds.Graph, ds.Objects
	for name, opts := range map[string]Options{
		"SIF":   {},
		"SIF-P": {MaxCuts: 3, TopFraction: 0.1, Log: &FreqLog{L: 3, N: 16, Seed: 99}},
	} {
		pool := storage.NewBufferPool(storage.NewPageFile(), 1<<16, nil)
		inv, err := invindex.Build(g, col, ds.VocabSize, pool)
		if err != nil {
			t.Fatal(err)
		}
		s, err := BuildSIF(g, col, ds.VocabSize, inv, invindex.GraphZCoder{G: g}, opts)
		if err != nil {
			t.Fatal(err)
		}
		if virtual := int(s.layout.NumSlots()) - g.NumEdges(); (virtual > 0) != (opts.MaxCuts > 0) {
			t.Fatalf("%s: %d virtual edges", name, virtual)
		}
		positions := make([][]int32, ds.VocabSize)
		for _, e := range col.Edges() {
			for _, id := range col.OnEdge(e) {
				o := col.Get(id)
				for _, term := range o.Terms {
					positions[term] = append(positions[term], s.slotOf(e, o.Pos.Offset))
				}
			}
		}
		signed := 0
		for term, want := range positions {
			term := obj.TermID(term)
			if len(want) == 0 || inv.ListPages(term) <= 1 {
				if s.HasSignature(term) {
					t.Errorf("%s: term %d of %d postings is signed", name, term, len(want))
				}
				continue
			}
			signed++
			sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
			want = slices.Compact(want)
			got := s.roots.Sigs[term]
			if got == nil || got.n != s.layout.NumSlots() || !slices.Equal(got.set, want) {
				t.Fatalf("%s: term %d: signature %+v, want the %d slots %v", name, term, got, len(want), want)
			}
		}
		if signed < 10 {
			t.Fatalf("%s: %d signed terms: the test is vacuous", name, signed)
		}
	}
}

// partitionFixture: the paper's Figure 3 example. Five objects on an edge,
// vocabulary {t1..t5} (0-indexed 0..4):
//
//	o1{t1,t3} o2{t2,t3} o3{t1} o4{t1} o5{t1,t4}
func figure3Objects() [][]obj.TermID {
	return [][]obj.TermID{
		{0, 2}, // o1: t1, t3
		{1, 2}, // o2: t2, t3
		{0},    // o3: t1
		{0},    // o4: t1
		{0, 3}, // o5: t1, t4
	}
}

func TestFalseHitCostFigure3(t *testing.T) {
	objs := figure3Objects()
	// The paper's Q with q1 = {t1,t3}, q2 = {t2,t4}, q3 = {t1,t2}.
	q1 := LogQuery{Terms: []obj.TermID{0, 2}, Prob: 1}
	q2 := LogQuery{Terms: []obj.TermID{1, 3}, Prob: 1}
	q3 := LogQuery{Terms: []obj.TermID{0, 1}, Prob: 1}

	// Whole edge (no cuts): ξ(q1) = 0 (true hit via o1), ξ(q2) = 5,
	// ξ(q3) = 5 — exactly the paper's numbers.
	if got := PartitionCost(objs, QueryLog{q1}, nil); got != 0 {
		t.Errorf("xi(q1, whole) = %v, want 0", got)
	}
	if got := PartitionCost(objs, QueryLog{q2}, nil); got != 5 {
		t.Errorf("xi(q2, whole) = %v, want 5", got)
	}
	if got := PartitionCost(objs, QueryLog{q3}, nil); got != 5 {
		t.Errorf("xi(q3, whole) = %v, want 5", got)
	}

	// Partition P = {e1 = o1..o2, e2 = o3..o5} (cut after object index 1):
	// ξ(q1,P) = 0, ξ(q2,P) = 0, ξ(q3,P) = 2 — the paper's example.
	cuts := []int{1}
	if got := PartitionCost(objs, QueryLog{q1}, cuts); got != 0 {
		t.Errorf("xi(q1, P) = %v, want 0", got)
	}
	if got := PartitionCost(objs, QueryLog{q2}, cuts); got != 0 {
		t.Errorf("xi(q2, P) = %v, want 0", got)
	}
	if got := PartitionCost(objs, QueryLog{q3}, cuts); got != 2 {
		t.Errorf("xi(q3, P) = %v, want 2", got)
	}
}

func TestPartitionGreedyNeverWorseThanNoCuts(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 30; trial++ {
		m := 5 + rng.Intn(10)
		objs := make([][]obj.TermID, m)
		for i := range objs {
			ts := make([]obj.TermID, 1+rng.Intn(3))
			for j := range ts {
				ts[j] = obj.TermID(rng.Intn(6))
			}
			objs[i] = obj.NormalizeTerms(ts)
		}
		var log QueryLog
		for i := 0; i < 5; i++ {
			ts := []obj.TermID{obj.TermID(rng.Intn(6)), obj.TermID(rng.Intn(6))}
			log = append(log, LogQuery{Terms: obj.NormalizeTerms(ts), Prob: 0.2})
		}
		noCuts := PartitionCost(objs, log, nil)
		cuts, cost := PartitionGreedy(objs, log, 3)
		if cost > noCuts+1e-12 {
			t.Fatalf("greedy worsened cost: %v -> %v (cuts %v)", noCuts, cost, cuts)
		}
	}
}

func TestPartitionEdgeCases(t *testing.T) {
	if cuts, cost := PartitionGreedy(nil, nil, 3); cuts != nil || cost != 0 {
		t.Error("empty greedy should be trivial")
	}
	one := [][]obj.TermID{{0}}
	if cuts, _ := PartitionGreedy(one, nil, 3); len(cuts) != 0 {
		t.Error("single object cannot be cut")
	}
}

func TestQueryLogModels(t *testing.T) {
	objTerms := [][]obj.TermID{{0, 1}, {0}, {0, 2}}
	freq := &FreqLog{L: 2, N: 50, Seed: 1}
	fl := freq.ForEdge(0, objTerms)
	if len(fl) == 0 {
		t.Fatal("freq log empty")
	}
	total := 0.0
	for _, q := range fl {
		total += q.Prob
		for _, term := range q.Terms {
			if term != 0 && term != 1 && term != 2 {
				t.Fatalf("log query uses term %d absent from edge", term)
			}
		}
	}
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("probabilities sum to %v", total)
	}

	randLog := &RandLog{L: 2, N: 50, Seed: 1}
	rl := randLog.ForEdge(0, objTerms)
	if len(rl) == 0 {
		t.Fatal("rand log empty")
	}
}

// buildSIFFixture assembles graph + objects + IF + SIF variants. Terms
// are drawn skewed toward low IDs, so the common terms' lists outgrow one
// page and are signed while the rare ones are not; the fixture fails
// unless some signature rejects some edge.
func buildSIFFixture(t testing.TB, opts Options, seed int64) (*graph.Graph, *obj.Collection, *SIF) {
	t.Helper()
	g := testGraph(t, 120, seed)
	rng := rand.New(rand.NewSource(seed + 1))
	const vocab = 15
	col := obj.NewCollection()
	for i := 0; i < 1200; i++ {
		e := graph.EdgeID(rng.Intn(g.NumEdges()))
		ts := make([]obj.TermID, 1+rng.Intn(3))
		for j := range ts {
			ts[j] = obj.TermID(rng.Intn(1 + rng.Intn(vocab)))
		}
		col.Add(graph.Position{Edge: e, Offset: rng.Float64() * g.Edge(e).Length}, ts)
	}
	pool := storage.NewBufferPool(storage.NewPageFile(), 512, nil)
	inv, err := invindex.Build(g, col, vocab, pool)
	if err != nil {
		t.Fatal(err)
	}
	if opts.MaxCuts > 0 && opts.Log == nil {
		opts.Log = &FreqLog{L: 2, N: 10, Seed: 3}
	}
	s, err := BuildSIF(g, col, vocab, inv, invindex.GraphZCoder{G: g}, opts)
	if err != nil {
		t.Fatal(err)
	}
	signed, rejecting := 0, 0
	for term := range obj.TermID(vocab) {
		if s.HasSignature(term) {
			signed++
			for e := range graph.EdgeID(g.NumEdges()) {
				if !s.passesIn(s.roots.Sigs, e, []obj.TermID{term}) {
					rejecting++
				}
			}
		}
	}
	if rejecting == 0 {
		t.Fatalf("seed %d: %d of %d terms signed and no signature rejects an edge; the signature test goes unexercised", seed, signed, vocab)
	}
	return g, col, s
}

// requireRejected fails unless the signature test rejected an edge among
// the probes s has counted.
func requireRejected(t *testing.T, s *SIF) {
	t.Helper()
	c := s.Counters()
	if c.SigRejected == 0 {
		t.Fatalf("no probe was rejected by a signature: %+v", c)
	}
	t.Logf("%+v", c)
}

func TestSIFNeverLosesObjects(t *testing.T) {
	// The signature test must be sound: SIF results == IF results.
	g, col, s := buildSIFFixture(t, Options{}, 7)
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 400; trial++ {
		e := graph.EdgeID(rng.Intn(g.NumEdges()))
		ts := obj.NormalizeTerms([]obj.TermID{
			obj.TermID(rng.Intn(15)), obj.TermID(rng.Intn(15)),
		})
		got, err := s.LoadObjects(context.Background(), e, ts)
		if err != nil {
			t.Fatal(err)
		}
		want := map[obj.ID]bool{}
		for _, id := range col.OnEdge(e) {
			if col.Get(id).HasAllTerms(ts) {
				want[id] = true
			}
		}
		if len(got) != len(want) {
			t.Fatalf("edge %d terms %v: got %d, want %d", e, ts, len(got), len(want))
		}
		for _, r := range got {
			if !want[r.ID] {
				t.Fatalf("spurious object %d", r.ID)
			}
		}
	}
	requireRejected(t, s)
}

func TestSIFPartitionedNeverLosesObjects(t *testing.T) {
	g, col, s := buildSIFFixture(t, Options{MaxCuts: 3, TopFraction: 0.3}, 9)
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 400; trial++ {
		e := graph.EdgeID(rng.Intn(g.NumEdges()))
		ts := obj.NormalizeTerms([]obj.TermID{
			obj.TermID(rng.Intn(15)), obj.TermID(rng.Intn(15)),
		})
		got, err := s.LoadObjects(context.Background(), e, ts)
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		for _, id := range col.OnEdge(e) {
			if col.Get(id).HasAllTerms(ts) {
				want++
			}
		}
		if len(got) != want {
			t.Fatalf("edge %d terms %v: got %d, want %d", e, ts, len(got), want)
		}
	}
	requireRejected(t, s)
}

func TestSIFCountsFalseHits(t *testing.T) {
	_, col, s := buildSIFFixture(t, Options{}, 11)
	s.ResetCounters()
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 300; trial++ {
		e := col.Edges()[rng.Intn(len(col.Edges()))]
		ts := obj.NormalizeTerms([]obj.TermID{
			obj.TermID(rng.Intn(15)), obj.TermID(rng.Intn(15)),
		})
		if _, err := s.LoadObjects(context.Background(), e, ts); err != nil {
			t.Fatal(err)
		}
	}
	c := s.Counters()
	if c.Probes != c.TrueHits+c.FalseHits {
		t.Errorf("probe accounting broken: %+v", c)
	}
	if c.Probes+c.SigRejected != 300 {
		t.Errorf("probe+reject = %d, want 300", c.Probes+c.SigRejected)
	}
	requireRejected(t, s)
}

func TestSIFPReducesFalseHits(t *testing.T) {
	// On the same probe workload, SIF-P's false hits must not exceed
	// SIF's (partitioning only refines the signature).
	_, col, sif := buildSIFFixture(t, Options{}, 13)
	_, _, sifp := buildSIFFixture(t, Options{MaxCuts: 4, TopFraction: 1.0}, 13)
	rng := rand.New(rand.NewSource(14))
	edges := col.Edges()
	for trial := 0; trial < 500; trial++ {
		e := edges[rng.Intn(len(edges))]
		ts := obj.NormalizeTerms([]obj.TermID{
			obj.TermID(rng.Intn(15)), obj.TermID(rng.Intn(15)),
		})
		if _, err := sif.LoadObjects(context.Background(), e, ts); err != nil {
			t.Fatal(err)
		}
		if _, err := sifp.LoadObjects(context.Background(), e, ts); err != nil {
			t.Fatal(err)
		}
	}
	a, b := sif.Counters(), sifp.Counters()
	if b.FalseHits > a.FalseHits {
		t.Errorf("SIF-P false hits %d exceed SIF's %d", b.FalseHits, a.FalseHits)
	}
	if b.TrueHits != a.TrueHits {
		t.Errorf("true hits differ: SIF %d vs SIF-P %d", a.TrueHits, b.TrueHits)
	}
	requireRejected(t, sif)
	requireRejected(t, sifp)
}

func TestSignatureSizeSmallerThanInvertedFile(t *testing.T) {
	// Figure 6c's key property: signatures add little over the inverted
	// file.
	_, _, s := buildSIFFixture(t, Options{}, 17)
	invSize := s.inner.Idx.SizeBytes()
	if s.SignatureBytes() >= invSize {
		t.Errorf("signatures (%d B) not smaller than inverted file (%d B)",
			s.SignatureBytes(), invSize)
	}
}

func TestLoadObjectsAnyMatchesBruteForce(t *testing.T) {
	g, col, s := buildSIFFixture(t, Options{}, 19)
	rng := rand.New(rand.NewSource(20))
	nonEmpty := 0
	for trial := 0; trial < 300; trial++ {
		e := graph.EdgeID(rng.Intn(g.NumEdges()))
		ts := obj.NormalizeTerms([]obj.TermID{
			obj.TermID(rng.Intn(15)), obj.TermID(rng.Intn(15)),
		})
		got, err := s.LoadObjectsAny(context.Background(), e, ts)
		if err != nil {
			t.Fatal(err)
		}
		want := map[obj.ID]index.TermSet{}
		for _, id := range col.OnEdge(e) {
			var matched index.TermSet
			for j, q := range ts {
				if col.Get(id).HasTerm(q) {
					matched.Add(j)
				}
			}
			if matched.Len() > 0 {
				want[id] = matched
			}
		}
		if len(got) != len(want) {
			t.Fatalf("edge %d terms %v: got %d matches, want %d", e, ts, len(got), len(want))
		}
		for _, m := range got {
			if !reflect.DeepEqual(want[m.Ref.ID], m.Terms) {
				t.Fatalf("object %d matched %v, want %v", m.Ref.ID, m.Terms, want[m.Ref.ID])
			}
		}
		if len(want) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty == 0 {
		t.Fatal("all union probes empty; test is vacuous")
	}
	requireRejected(t, s)
}

func TestLoadObjectsAnyEmptyTerms(t *testing.T) {
	_, _, s := buildSIFFixture(t, Options{}, 21)
	got, err := s.LoadObjectsAny(context.Background(), 0, nil)
	if err != nil || got != nil {
		t.Errorf("empty terms: %v, %v", got, err)
	}
}

// TestRarestFirstMatchesQueryOrder: behind the signature test too, SIF
// and SIF-P built rarest first answer a probe as they do in query order —
// the same IDs, edges and offset bits — over random one-to-four-term lists
// of signed and unsigned terms, duplicates included, through random insert
// and remove batches.
func TestRarestFirstMatchesQueryOrder(t *testing.T) {
	const vocab = 15
	for _, opts := range []Options{{}, {MaxCuts: 3, TopFraction: 0.3, Log: &FreqLog{L: 2, N: 10, Seed: 3}}} {
		opts.SelectivityOrder = true
		g := testGraph(t, 60, 23)
		rng := rand.New(rand.NewSource(24))
		skewed := func() []obj.TermID {
			ts := make([]obj.TermID, 1+rng.Intn(4))
			for j := range ts {
				ts[j] = obj.TermID(rng.Intn(1 + rng.Intn(vocab)))
			}
			return ts
		}
		position := func() graph.Position {
			e := graph.EdgeID(rng.Intn(g.NumEdges()))
			return graph.Position{Edge: e, Offset: rng.Float64() * g.Edge(e).Length}
		}
		col := obj.NewCollection()
		for i := 0; i < 3000; i++ {
			col.Add(position(), skewed())
		}
		pool := storage.NewBufferPool(storage.NewPageFile(), 512, nil)
		inv, err := invindex.Build(g, col, vocab, pool)
		if err != nil {
			t.Fatal(err)
		}
		s, err := BuildSIF(g, col, vocab, inv, invindex.GraphZCoder{G: g}, opts)
		if err != nil {
			t.Fatal(err)
		}
		signed := 0
		for term := range vocab {
			if s.HasSignature(obj.TermID(term)) {
				signed++
			}
		}
		if signed == 0 || signed == vocab {
			t.Fatalf("MaxCuts %d: %d of %d terms signed; want signed and unsigned terms", opts.MaxCuts, signed, vocab)
		}

		invRoots, sigRoots := inv.Roots(), s.Roots()
		found := 0
		for batch := 0; batch < 10; batch++ {
			for i := 0; i < 10; i++ {
				pos := position()
				id := col.Add(pos, skewed())
				if err := s.InsertObjectAt(pool, &invRoots, &sigRoots, id, pos.Edge, pos.Offset, col.Get(id).Terms); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 5; i++ {
				id := obj.ID(rng.Intn(col.Len()))
				if col.Removed(id) {
					continue
				}
				o := col.Get(id)
				if err := s.RemoveObjectAt(pool, &invRoots, id, o.Pos.Edge, o.Terms); err != nil {
					t.Fatal(err)
				}
				if err := col.Remove(id); err != nil {
					t.Fatal(err)
				}
			}
			rarest := s.ReaderAt(pool, &invRoots, &sigRoots)
			if !rarest.inner.SelectivityOrder {
				t.Fatal("BuildSIF dropped Options.SelectivityOrder")
			}
			queryOrder := *rarest
			queryOrder.inner.SelectivityOrder = false
			edges := col.Edges()
			for probe := 0; probe < 50; probe++ {
				e, terms := edges[rng.Intn(len(edges))], skewed()
				want, err := queryOrder.LoadObjects(context.Background(), e, terms)
				if err != nil {
					t.Fatal(err)
				}
				got, err := rarest.LoadObjects(context.Background(), e, terms)
				if err != nil {
					t.Fatal(err)
				}
				found += len(want)
				same := len(got) == len(want)
				for i := 0; same && i < len(got); i++ {
					same = got[i].ID == want[i].ID && got[i].Edge == want[i].Edge &&
						math.Float64bits(got[i].Offset) == math.Float64bits(want[i].Offset)
				}
				if !same {
					t.Fatalf("MaxCuts %d, batch %d, edge %d, terms %v: rarest first %v, query order %v",
						opts.MaxCuts, batch, e, terms, got, want)
				}
			}
		}
		t.Logf("MaxCuts %d: %d of %d terms signed, %d objects found", opts.MaxCuts, signed, vocab, found)
		if found == 0 {
			t.Fatalf("MaxCuts %d: every probe came back empty; the test is vacuous", opts.MaxCuts)
		}
	}
}

// TestSignedTermDigest pins the signature layer against changes to the
// inverted file below it: on NA/20, the terms SIF and SIF-P sign and every
// bit of their signatures hash to the digests recorded while a posting was
// 16 bytes. The one-page rule counts a term's postings at that page
// density (invindex.ListPages), so the record size does not move it.
func TestSignedTermDigest(t *testing.T) {
	ds, err := dataset.GeneratePreset(dataset.PresetNA, 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	g, col := ds.Graph, ds.Objects
	for _, tc := range []struct {
		name string
		opts Options
		want string
	}{
		{"SIF", Options{}, "256 terms 8b167ab2f70009ef"},
		{"SIF-P", Options{MaxCuts: 3, TopFraction: 0.1, Log: &FreqLog{L: 3, N: 16, Seed: 99}}, "256 terms 17a5e4abd9ff3717"},
	} {
		inv, err := invindex.Build(g, col, ds.VocabSize, storage.NewBufferPool(storage.NewPageFile(), 1<<16, nil))
		if err != nil {
			t.Fatal(err)
		}
		s, err := BuildSIF(g, col, ds.VocabSize, inv, invindex.GraphZCoder{G: g}, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		h, signed := sha256.New(), 0
		for term, ts := range s.roots.Sigs {
			if ts != nil {
				signed++
				fmt.Fprintf(h, "%d %d %v\n", term, ts.n, ts.set)
			}
		}
		if got := fmt.Sprintf("%d terms %x", signed, h.Sum(nil)[:8]); got != tc.want {
			t.Errorf("%s: signed %s, want %s", tc.name, got, tc.want)
		}
	}
}
