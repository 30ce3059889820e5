package core

import (
	"context"
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
// traversal over it allocates only what the frontier itself allocates.
type fixedNet struct {
	ccam.InMemory
	adj [][]ccam.AdjEntry
}

func (n fixedNet) Adjacency(_ context.Context, id graph.NodeID) ([]ccam.AdjEntry, error) {
	return n.adj[id], nil
}

// TestFrontierReuseAllocatesNothing pins the reason the kernel exists: a
// second run on a reused frontier needs no new heap or label storage.
func TestFrontierReuseAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randomGraph(rng, 200, false)
	net := fixedNet{InMemory: ccam.InMemory{G: g}}
	for n := 0; n < g.NumNodes(); n++ {
		adj, err := net.InMemory.Adjacency(context.Background(), graph.NodeID(n))
		if err != nil {
			t.Fatal(err)
		}
		net.adj = append(net.adj, adj)
	}
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
