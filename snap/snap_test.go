package snap

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"dsks/internal/geo"
	"dsks/internal/graph"
)

// paperGraph is the five-node network of the paper's running example.
func paperGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g := graph.New()
	g.AddNode(geo.Point{X: 0, Y: 10})  // n0
	g.AddNode(geo.Point{X: 10, Y: 10}) // n1
	g.AddNode(geo.Point{X: 15, Y: 10}) // n2
	g.AddNode(geo.Point{X: 0, Y: 0})   // n3
	g.AddNode(geo.Point{X: 15, Y: 0})  // n4
	for _, e := range [][3]float64{{0, 1, 10}, {1, 2, 5}, {0, 3, 8}, {2, 4, 4}, {3, 4, 12}} {
		if _, err := g.AddEdge(graph.NodeID(e[0]), graph.NodeID(e[1]), e[2]); err != nil {
			t.Fatal(err)
		}
	}
	g.Freeze()
	return g
}

func TestSnapperExactOnEdge(t *testing.T) {
	g := paperGraph(t)
	s, err := New(g)
	if err != nil {
		t.Fatal(err)
	}
	// A point exactly on edge (0,1): y = 10, x in [0, 10].
	pos, dist, err := s.Snap(geo.Point{X: 4, Y: 10})
	if err != nil {
		t.Fatal(err)
	}
	if dist > 1e-9 {
		t.Errorf("on-edge point snapped at distance %v", dist)
	}
	e, _ := g.EdgeBetween(0, 1)
	if pos.Edge != e.ID || math.Abs(pos.Offset-4) > 1e-9 {
		t.Errorf("snap = %+v, want edge %d offset 4", pos, e.ID)
	}
}

func TestSnapperOffEdge(t *testing.T) {
	g := paperGraph(t)
	s, err := New(g)
	if err != nil {
		t.Fatal(err)
	}
	// A point 3 above edge (0,1)'s midpoint.
	pos, dist, err := s.Snap(geo.Point{X: 5, Y: 13})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(dist-3) > 1e-9 {
		t.Errorf("snap distance %v, want 3", dist)
	}
	if math.Abs(pos.Offset-5) > 1e-9 {
		t.Errorf("snap offset %v, want 5", pos.Offset)
	}
}

func TestSnapperMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := graph.New()
	const n = 60
	for i := 0; i < n; i++ {
		g.AddNode(geo.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000})
	}
	for i := 1; i < n; i++ {
		if _, err := g.AddEdge(graph.NodeID(i-1), graph.NodeID(i), 1); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		a, b := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
		if a != b {
			_, _ = g.AddEdge(a, b, 1)
		}
	}
	g.Freeze()
	s, err := New(g)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 60; trial++ {
		p := geo.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
		_, gotDist, err := s.Snap(p)
		if err != nil {
			t.Fatal(err)
		}
		best := math.Inf(1)
		for e := 0; e < g.NumEdges(); e++ {
			ed := g.Edge(graph.EdgeID(e))
			d, _ := geo.PointSegment(p, g.Node(ed.N1).Loc, g.Node(ed.N2).Loc)
			if d < best {
				best = d
			}
		}
		if math.Abs(gotDist-best) > 1e-9 {
			t.Fatalf("snap distance %v, brute force %v", gotDist, best)
		}
	}
}

func TestSnapperEmptyNetwork(t *testing.T) {
	if _, err := New(graph.New()); !errors.Is(err, ErrEmptyNetwork) {
		t.Errorf("empty network: err = %v, want ErrEmptyNetwork", err)
	}
}

func BenchmarkSnap(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := graph.New()
	const n = 5_000
	for i := 0; i < n; i++ {
		g.AddNode(geo.Point{X: rng.Float64() * geo.WorldMax, Y: rng.Float64() * geo.WorldMax})
	}
	for i := 1; i < n; i++ {
		if _, err := g.AddEdge(graph.NodeID(i-1), graph.NodeID(i), 1+rng.Float64()*10); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 2*n; i++ {
		a, c := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
		if a != c {
			_, _ = g.AddEdge(a, c, 1+rng.Float64()*10)
		}
	}
	g.Freeze()
	s, err := New(g)
	if err != nil {
		b.Fatal(err)
	}
	rng = rand.New(rand.NewSource(3))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := geo.Point{X: rng.Float64() * geo.WorldMax, Y: rng.Float64() * geo.WorldMax}
		if _, _, err := s.Snap(p); err != nil {
			b.Fatal(err)
		}
	}
}
