package ccam

import (
	"context"

	"math/rand"
	"testing"

	"dsks/internal/graph"
	"dsks/internal/storage"
)

func BenchmarkBuild(b *testing.B) {
	g := randomGraph(b, 5000, 5000, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(g, newPool(4096)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAdjacencyWarm(b *testing.B) {
	g := randomGraph(b, 5000, 5000, 2)
	f, err := Build(g, newPool(4096))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.Adjacency(context.Background(), graph.NodeID(rng.Intn(g.NumNodes()))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAdjacencyCold(b *testing.B) {
	g := randomGraph(b, 5000, 5000, 4)
	stats := &storage.IOStats{}
	pool := storage.NewBufferPool(storage.NewPageFile(), 2, stats)
	f, err := Build(g, pool)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.Adjacency(context.Background(), graph.NodeID(rng.Intn(g.NumNodes()))); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(stats.Snapshot().DiskRead)/float64(b.N), "reads/op")
}
