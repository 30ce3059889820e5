package storage

import (
	"math/rand"
	"testing"
)

func benchPoolWithPages(b *testing.B, frames, pages int) (*BufferPool, []PageID) {
	b.Helper()
	f := NewPageFile()
	pool := NewBufferPool(f, frames, nil)
	ids := make([]PageID, pages)
	for i := range ids {
		p, err := pool.Allocate()
		if err != nil {
			b.Fatal(err)
		}
		ids[i] = p.ID()
	}
	if err := pool.DropAll(); err != nil {
		b.Fatal(err)
	}
	return pool, ids
}

func BenchmarkPoolGetHit(b *testing.B) {
	pool, ids := benchPoolWithPages(b, 64, 32) // everything fits
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pool.Get(ids[i%len(ids)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPageMemoHit is BenchmarkPoolGetHit's twin one layer up: the
// same ten pages (one query's worth) asked of a warm memo instead of the
// pool, through the view a query would use.
func BenchmarkPageMemoHit(b *testing.B) {
	pool, ids := benchPoolWithPages(b, 64, 10)
	m := NewPageMemo(pool.ViewAt(0), 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Get(ids[i%len(ids)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPoolGetMiss(b *testing.B) {
	pool, ids := benchPoolWithPages(b, 2, 512) // nearly every access misses
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pool.Get(ids[rng.Intn(len(ids))]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPoolAllocateFlush(b *testing.B) {
	f := NewPageFile()
	pool := NewBufferPool(f, 64, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := pool.Allocate()
		if err != nil {
			b.Fatal(err)
		}
		p.PutUint64(0, uint64(i))
		pool.MarkDirty(p.ID())
		if i%64 == 63 {
			if err := pool.Flush(); err != nil {
				b.Fatal(err)
			}
		}
	}
}
