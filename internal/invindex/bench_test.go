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
// intersection kept in the first term's slice. pages/op is the page
// requests of the probe: one leaf per term read (the second term is
// skipped when the first finds nothing), with nothing on top for the hop
// to a list on another page.
func BenchmarkLoadObjects(b *testing.B) {
	_, col, _, loader, stats := buildFixture(b, 5000, 1)
	edges := col.Edges()
	rng := rand.New(rand.NewSource(2))
	before := stats.LogicalRead.Load()
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
	b.ReportMetric(float64(stats.LogicalRead.Load()-before)/float64(b.N), "pages/op")
}

// BenchmarkLoadObjectsAny is one OR probe of two terms. allocs/op: 26
// (1658 B) with a map of pointers and a sort.Slice per probe, 6 (855 B)
// with the terms' object-sorted lists merged into two slices.
func BenchmarkLoadObjectsAny(b *testing.B) {
	_, col, _, loader, _ := buildFixture(b, 5000, 3)
	edges := col.Edges()
	rng := rand.New(rand.NewSource(4))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := edges[rng.Intn(len(edges))]
		ts := obj.NormalizeTerms([]obj.TermID{
			obj.TermID(rng.Intn(20)), obj.TermID(rng.Intn(20)),
		})
		got, err := loader.LoadObjectsAny(context.Background(), e, ts)
		if err != nil {
			b.Fatal(err)
		}
		for j := 1; j < len(got); j++ {
			if got[j-1].Ref.ID >= got[j].Ref.ID {
				b.Fatalf("edge %d terms %v: matches not in ascending object ID: %v", e, ts, got)
			}
		}
	}
}

// BenchmarkBuildIndex builds the inverted file of 5000 objects. The build
// is a counting sort of the postings into one arena, so allocs/op is a few
// dozen slices plus the pool's frames and does not grow with the number of
// keys (the map-and-sort builder allocated one entry and one slice per key).
func BenchmarkBuildIndex(b *testing.B) {
	g, col, idx, _, _ := buildFixture(b, 5000, 5)
	postings := 0
	for _, n := range idx.Roots().TermPostings {
		postings += int(n)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pool := newBenchPool()
		if _, err := Build(g, col, 20, pool); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(postings)*float64(b.N)/b.Elapsed().Seconds(), "postings/s")
}

func newBenchPool() *storage.BufferPool {
	return storage.NewBufferPool(storage.NewPageFile(), 2048, nil)
}
