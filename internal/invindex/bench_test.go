package invindex

import (
	"context"

	"math/rand"
	"testing"

	"dsks/internal/obj"
	"dsks/internal/storage"
)

// BenchmarkLoadObjects is one AND probe of two terms through the pool.
// allocs/op is the figure to watch: 17 with a map per term, 5 with the
// intersection kept in the first term's slice.
func BenchmarkLoadObjects(b *testing.B) {
	_, col, _, loader, _ := buildFixture(b, 5000, 1)
	edges := col.Edges()
	rng := rand.New(rand.NewSource(2))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := edges[rng.Intn(len(edges))]
		ts := obj.NormalizeTerms([]obj.TermID{
			obj.TermID(rng.Intn(20)), obj.TermID(rng.Intn(20)),
		})
		if _, err := loader.LoadObjects(context.Background(), e, ts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLoadObjectsAny(b *testing.B) {
	_, col, _, loader, _ := buildFixture(b, 5000, 3)
	edges := col.Edges()
	rng := rand.New(rand.NewSource(4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := edges[rng.Intn(len(edges))]
		ts := obj.NormalizeTerms([]obj.TermID{
			obj.TermID(rng.Intn(20)), obj.TermID(rng.Intn(20)),
		})
		if _, err := loader.LoadObjectsAny(context.Background(), e, ts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildIndex(b *testing.B) {
	g, col, _, _, _ := buildFixture(b, 5000, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pool := newBenchPool()
		if _, err := Build(g, col, 20, pool); err != nil {
			b.Fatal(err)
		}
	}
}

func newBenchPool() *storage.BufferPool {
	return storage.NewBufferPool(storage.NewPageFile(), 2048, nil)
}
