package rtree

import (
	"context"
	"math/rand"
	"testing"

	"dsks/internal/geo"
)

func BenchmarkBulkLoad(b *testing.B) {
	es := randomEntriesBench(50_000, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BulkLoad(newPool(2048), es); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSearchSmallWindow(b *testing.B) {
	tr, err := BulkLoad(newPool(2048), randomEntriesBench(50_000, 3))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x, y := rng.Float64()*geo.WorldMax, rng.Float64()*geo.WorldMax
		q := geo.Rect{MinX: x, MinY: y, MaxX: x + 50, MaxY: y + 50}
		if err := tr.SearchCtx(context.Background(), q, func(Entry) bool { return true }); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNearest(b *testing.B) {
	es := randomEntriesBench(50_000, 5)
	tr, err := BulkLoad(newPool(2048), es)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := geo.Point{X: rng.Float64() * geo.WorldMax, Y: rng.Float64() * geo.WorldMax}
		if _, _, ok := tr.Nearest(p, func(e Entry) float64 { return e.Rect.MinDist(p) }); !ok {
			b.Fatal("no nearest")
		}
	}
}

func randomEntriesBench(n int, seed int64) []Entry {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Entry, n)
	for i := range out {
		x, y := rng.Float64()*geo.WorldMax, rng.Float64()*geo.WorldMax
		out[i] = Entry{Rect: geo.Rect{MinX: x, MinY: y, MaxX: x + 5, MaxY: y + 5}, Ref: uint64(i)}
	}
	return out
}
