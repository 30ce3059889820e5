package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"dsks/internal/alt"
	"dsks/internal/ccam"
	"dsks/internal/geo"
	"dsks/internal/graph"
	"dsks/internal/storage"
)

// randomGraph builds a seeded graph of two components (so some nodes are
// unreachable from any source): a random spanning tree plus extra edges in
// each. With ties set, weights are small integers, which makes equal
// tentative distances — and equal heap keys — common.
func randomGraph(rng *rand.Rand, n int, ties bool) *graph.Graph {
	g := graph.New()
	for i := 0; i < n; i++ {
		g.AddNode(geo.Point{X: float64(rng.Intn(100)), Y: float64(rng.Intn(100))})
	}
	weight := func() float64 {
		if ties {
			return float64(1 + rng.Intn(3))
		}
		return 0.5 + 10*rng.Float64()
	}
	split := 2 + rng.Intn(n-3) // both components have at least two nodes
	for _, c := range [][2]int{{0, split}, {split, n}} {
		lo, size := c[0], c[1]-c[0]
		for i := 1; i < size; i++ {
			g.AddEdge(graph.NodeID(lo+i), graph.NodeID(lo+rng.Intn(i)), weight())
		}
		for i := 0; i < size; i++ {
			if a, b := lo+rng.Intn(size), lo+rng.Intn(size); a != b {
				g.AddEdge(graph.NodeID(a), graph.NodeID(b), weight())
			}
		}
	}
	g.Freeze()
	return g
}

// randomPosition picks an edge and a mid-edge offset (sometimes an end).
func randomPosition(rng *rand.Rand, g *graph.Graph) graph.Position {
	e := g.Edge(graph.EdgeID(rng.Intn(g.NumEdges())))
	return graph.Position{Edge: e.ID, Offset: e.Length * float64(rng.Intn(5)) / 4}
}

// checkDijkstra runs the frontier without a potential from p under bound
// and compares it, label for label, with the in-memory reference.
func checkDijkstra(t *testing.T, g *graph.Graph, p graph.Position, bound float64) {
	t.Helper()
	f := newFrontier(context.Background(), ccam.InMemory{G: g})
	if _, _, err := f.start(p, bound, nil); err != nil {
		t.Fatal(err)
	}
	prevKey, prevNode := math.Inf(-1), graph.InvalidNode
	for {
		top, ok := f.peek()
		if !ok {
			break
		}
		n, dist, _, err := f.settle()
		if err != nil {
			t.Fatal(err)
		}
		if graph.NodeID(top.ID) != n || top.Val != dist || top.Key != dist {
			t.Fatalf("settle took (%d, %v), peek announced %+v", n, dist, top)
		}
		// Positive weights: everything queued later is strictly farther, so
		// the settle order is strictly increasing in (distance, node ID).
		if dist < prevKey || (dist == prevKey && n <= prevNode) {
			t.Fatalf("settled (%v, node %d) after (%v, node %d)", dist, n, prevKey, prevNode)
		}
		prevKey, prevNode = dist, n
	}
	want := g.DistancesFromPosition(p, graph.Inf)
	got := make(map[graph.NodeID]float64, len(f.labels))
	for _, l := range f.labels {
		if !l.settled {
			t.Fatalf("node %d labeled but never settled by an exhausted run", l.node)
		}
		got[l.node] = l.g
	}
	if int64(len(got)) != f.settledN {
		t.Fatalf("settledN = %d over %d distinct labels", f.settledN, len(got))
	}
	for n, d := range want {
		inBound := d <= bound && d < graph.Inf // unreachable nodes are never labeled
		if l, ok := got[graph.NodeID(n)]; inBound && (!ok || l != d) {
			t.Fatalf("from %+v bound %v: node %d labeled %v (%v), reference %v", p, bound, n, l, ok, d)
		} else if !inBound && ok {
			t.Fatalf("from %+v bound %v: node %d labeled %v, reference %v is out of reach", p, bound, n, l, d)
		}
	}
}

// checkAStar runs the frontier under a potential toward dst with the
// engine's stop rule and compares the answer with the reference. scale 1
// is the exact remaining distance (a consistent potential that leaves no
// slack at all); smaller scales are consistent but looser.
func checkAStar(t *testing.T, g *graph.Graph, src, dst graph.Position, bound, scale float64) {
	t.Helper()
	toDst := g.DistancesFromPosition(dst, graph.Inf)
	pot := func(n graph.NodeID) (float64, error) { return scale * toDst[n], nil }
	f := newFrontier(context.Background(), ccam.InMemory{G: g})
	if _, _, err := f.start(src, bound, pot); err != nil {
		t.Fatal(err)
	}
	e := g.Edge(dst.Edge)
	w1, w2 := g.CostToEnds(g.Clamp(dst))
	best := math.Inf(1)
	for {
		top, ok := f.peek()
		if !ok || top.Key >= best {
			break
		}
		if graph.NodeID(top.ID) == e.N1 {
			best = math.Min(best, top.Val+w1)
		}
		if graph.NodeID(top.ID) == e.N2 {
			best = math.Min(best, top.Val+w2)
		}
		f.limit = math.Min(bound, math.Nextafter(best, math.Inf(-1)))
		if _, _, _, err := f.settle(); err != nil {
			t.Fatal(err)
		}
	}
	ref := viaNodes(g, src, dst)
	switch {
	case ref <= bound && math.Abs(best-ref) > 1e-9*math.Max(1, ref):
		t.Fatalf("A* %+v -> %+v (bound %v, scale %v) = %v, reference %v", src, dst, bound, scale, best, ref)
	case ref > bound && best <= bound:
		t.Fatalf("A* %+v -> %+v found %v within bound %v, reference %v", src, dst, best, bound, ref)
	}
}

// viaNodes is the reference src→dst distance through end-nodes (the
// frontier never sees the same-edge direct path; its callers add it).
func viaNodes(g *graph.Graph, src, dst graph.Position) float64 {
	dist := g.DistancesFromPosition(src, graph.Inf)
	e := g.Edge(dst.Edge)
	w1, w2 := g.CostToEnds(g.Clamp(dst))
	return math.Min(dist[e.N1]+w1, dist[e.N2]+w2)
}

// TestFrontierMatchesReference is the kernel's differential test: both
// configurations, bounded and unbounded, from mid-edge seeds, across
// disconnected components and with equal-key ties.
func TestFrontierMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 5+rng.Intn(60), seed%2 == 0)
		for i := 0; i < 8; i++ {
			src, dst := randomPosition(rng, g), randomPosition(rng, g)
			for _, bound := range []float64{math.Inf(1), 4, 15} {
				checkDijkstra(t, g, src, bound)
				checkAStar(t, g, src, dst, bound, 1)
				checkAStar(t, g, src, dst, bound, 0.5)
			}
		}
	}
}

// TestDistEngineMatchesReferenceOnRandomGraphs drives the two engine
// configurations of the frontier — the blind table sweep and A* under the
// real landmark potential — against graph.NetworkDist.
func TestDistEngineMatchesReferenceOnRandomGraphs(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 8+rng.Intn(60), seed%2 == 0)
		pool := storage.NewBufferPool(storage.NewPageFile(), 64, nil)
		oracle, err := alt.Build(g, pool, alt.Config{Landmarks: 4, Seed: uint64(seed)})
		if err != nil {
			t.Fatal(err)
		}
		net := ccam.InMemory{G: g}
		for _, bound := range []float64{math.Inf(1), 12} {
			blind := NewDistEngine(context.Background(), net, bound, nil)
			assisted := NewDistEngine(context.Background(), WithOracle(net, oracle, OracleCounters{}), bound, nil)
			for i := 0; i < 30; i++ {
				a, b := randomPosition(rng, g), randomPosition(rng, g)
				want := g.NetworkDist(a, b)
				for name, eng := range map[string]*DistEngine{"blind": blind, "assisted": assisted} {
					got, err := eng.Dist(a, b)
					if err != nil {
						t.Fatal(err)
					}
					if want <= bound && math.Abs(got-want) > 1e-9*math.Max(1, want) {
						t.Fatalf("seed %d %s: Dist(%+v, %+v) = %v, reference %v", seed, name, a, b, got, want)
					}
					if want > bound && got <= bound {
						t.Fatalf("seed %d %s: Dist(%+v, %+v) = %v within bound %v, reference %v", seed, name, a, b, got, bound, want)
					}
				}
			}
		}
	}
}

// fixedNet is a Network whose Adjacency hands out prebuilt lists, so a
// traversal over it allocates only what the frontier itself allocates; it
// counts the calls.
type fixedNet struct {
	ccam.InMemory
	adj   [][]ccam.AdjEntry
	calls *int
}

func newFixedNet(t *testing.T, g *graph.Graph) fixedNet {
	net := fixedNet{InMemory: ccam.InMemory{G: g}, calls: new(int)}
	for n := 0; n < g.NumNodes(); n++ {
		adj, err := net.InMemory.Adjacency(context.Background(), graph.NodeID(n))
		if err != nil {
			t.Fatal(err)
		}
		net.adj = append(net.adj, adj)
	}
	return net
}

func (n fixedNet) Adjacency(_ context.Context, id graph.NodeID) ([]ccam.AdjEntry, error) {
	*n.calls++
	return n.adj[id], nil
}

// TestFrontierReuseAllocatesNothing pins the reason the kernel exists: a
// second run on a reused frontier needs no new heap or label storage.
func TestFrontierReuseAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randomGraph(rng, 200, false)
	net := newFixedNet(t, g)
	f := newFrontier(context.Background(), net)
	p := graph.Position{Edge: 0, Offset: g.Edge(0).Length / 3}
	run := func() {
		if _, _, err := f.start(p, math.Inf(1), nil); err != nil {
			t.Fatal(err)
		}
		for _, ok := f.peek(); ok; _, ok = f.peek() {
			if _, _, _, err := f.settle(); err != nil {
				t.Fatal(err)
			}
		}
	}
	run()
	if f.settledN < 2 {
		t.Fatalf("warm-up run settled %d nodes; the test is vacuous", f.settledN)
	}
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Errorf("a run on a reused frontier allocated %v times, want 0", allocs)
	}

	// The same holds one level up: an oracle-assisted engine that has seen
	// two positions answers the pair again — a whole A* run, since only
	// source tables are cached — out of the storage it already has.
	pool := storage.NewBufferPool(storage.NewPageFile(), 64, nil)
	oracle, err := alt.Build(g, pool, alt.Config{Landmarks: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	var stats SearchStats
	eng := NewDistEngine(context.Background(), WithOracle(net, oracle, OracleCounters{}), math.Inf(1), &stats)
	a, b := graph.Position{Edge: 150, Offset: g.Edge(150).Length / 3}, graph.Position{Edge: 0}
	dist := func() {
		if _, err := eng.Dist(a, b); err != nil {
			t.Fatal(err)
		}
	}
	for stats.DistSettled == 0 { // skip the pairs the oracle bounds resolve outright
		if b.Edge++; int(b.Edge) == g.NumEdges() {
			t.Fatal("no pair needed a traversal; the test is vacuous")
		}
		dist()
	}
	if allocs := testing.AllocsPerRun(20, dist); allocs != 0 {
		t.Errorf("Dist on an already-seen pair allocated %v times, want 0", allocs)
	}
}

// TestSettleChecksContextOnMemoHit: a settle served from the adjacency
// memo is still a settle, so a context cancelled once the memo is warm
// aborts the very next one.
func TestSettleChecksContextOnMemoHit(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(3)), 50, false)
	net := newFixedNet(t, g)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	f := newFrontier(ctx, net)
	p := graph.Position{Edge: 0}
	for run := 0; run < 2; run++ {
		if _, _, err := f.start(p, math.Inf(1), nil); err != nil {
			t.Fatal(err)
		}
		for _, ok := f.peek(); ok; _, ok = f.peek() {
			if _, _, _, err := f.settle(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if int64(*net.calls) != f.settledN {
		t.Fatalf("two runs settling %d nodes each made %d Adjacency calls, want one per node", f.settledN, *net.calls)
	}
	if _, _, err := f.start(p, math.Inf(1), nil); err != nil {
		t.Fatal(err)
	}
	cancel()
	if _, ok := f.peek(); !ok {
		t.Fatal("nothing to settle")
	}
	if _, _, _, err := f.settle(); !errors.Is(err, ErrCanceled) {
		t.Fatalf("settle on a warm memo under a cancelled context: %v, want ErrCanceled", err)
	}
}

// TestTriangleLBMatchesOracleBounds: the lb-only loop behind the A*
// potential returns oracleBounds' lower bound bit for bit, including the
// landmark columns that loop no longer tests for explicitly.
func TestTriangleLBMatchesOracleBounds(t *testing.T) {
	inf := math.Inf(1)
	for _, tc := range []struct {
		name   string
		va, vb []float64
		want   float64
	}{
		{"finite", []float64{3, 10, 7.5}, []float64{4, 2.25, 7.5}, 7.75},
		{"no landmarks", nil, nil, 0},
		{"unreachable from both sides is skipped", []float64{inf, 5}, []float64{inf, 3}, 2},
		{"every landmark unreachable from both sides", []float64{inf, inf}, []float64{inf, inf}, 0},
		{"unreachable from a alone", []float64{inf, 5}, []float64{9, 3}, inf},
		{"unreachable from b alone", []float64{1, 5}, []float64{2, inf}, inf},
		{"one-sided after two-sided", []float64{inf, inf, 1}, []float64{inf, 4, 1}, inf},
	} {
		lb, _ := oracleBounds(tc.va, tc.vb)
		got := triangleLB(tc.va, tc.vb)
		if math.Float64bits(got) != math.Float64bits(lb) || got != tc.want {
			t.Errorf("%s: triangleLB = %v, oracleBounds lb = %v, want %v", tc.name, got, lb, tc.want)
		}
	}
}

// FuzzFrontierVsReference lets the fuzzer pick the graph, the source, the
// target and the bound of the differential check.
func FuzzFrontierVsReference(f *testing.F) {
	f.Add(int64(1), uint8(10), uint16(0), uint16(3), uint8(0), false)
	f.Add(int64(2), uint8(40), uint16(7), uint16(1), uint8(9), true)
	f.Add(int64(3), uint8(255), uint16(300), uint16(12), uint8(40), true)
	f.Fuzz(func(t *testing.T, seed int64, size uint8, srcEdge, dstEdge uint16, bound uint8, ties bool) {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 5+int(size), ties)
		at := func(e uint16) graph.Position {
			ed := g.Edge(graph.EdgeID(int(e) % g.NumEdges()))
			return graph.Position{Edge: ed.ID, Offset: ed.Length * float64(e%5) / 4}
		}
		limit := float64(bound)
		if bound == 0 {
			limit = math.Inf(1)
		}
		checkDijkstra(t, g, at(srcEdge), limit)
		checkAStar(t, g, at(srcEdge), at(dstEdge), limit, 1)
		checkAStar(t, g, at(srcEdge), at(dstEdge), limit, 0.25)
	})
}
