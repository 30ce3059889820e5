package graph

import (
	"math/rand"
	"testing"

	"dsks/internal/geo"
)

func benchGraph(b *testing.B, n int) *Graph {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	g := New()
	for i := 0; i < n; i++ {
		g.AddNode(geo.Point{X: rng.Float64() * geo.WorldMax, Y: rng.Float64() * geo.WorldMax})
	}
	for i := 1; i < n; i++ {
		if _, err := g.AddEdge(NodeID(i-1), NodeID(i), 1+rng.Float64()*10); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 2*n; i++ {
		a, c := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
		if a != c {
			_, _ = g.AddEdge(a, c, 1+rng.Float64()*10)
		}
	}
	g.Freeze()
	return g
}

func BenchmarkDijkstraFull(b *testing.B) {
	g := benchGraph(b, 10_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.DistancesFromNode(NodeID(i%g.NumNodes()), Inf)
	}
}

func BenchmarkDijkstraBounded(b *testing.B) {
	g := benchGraph(b, 10_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.DistancesFromNode(NodeID(i%g.NumNodes()), 8)
	}
}

func BenchmarkNetworkDist(b *testing.B) {
	g := benchGraph(b, 2_000)
	rng := rand.New(rand.NewSource(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := Position{Edge: EdgeID(rng.Intn(g.NumEdges()))}
		c := Position{Edge: EdgeID(rng.Intn(g.NumEdges()))}
		g.NetworkDist(a, c)
	}
}
