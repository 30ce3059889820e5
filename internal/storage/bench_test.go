package storage

import (
	"math/rand"
	"testing"
	"time"
)

// poolWithColdPages returns a pool of the given frame count over pages
// allocated pages, none of them buffered.
func poolWithColdPages(tb testing.TB, frames, pages int) (*BufferPool, []PageID) {
	tb.Helper()
	f := NewPageFile()
	pool := NewBufferPool(f, frames, nil)
	ids := make([]PageID, pages)
	for i := range ids {
		p, err := pool.Allocate()
		if err != nil {
			tb.Fatal(err)
		}
		ids[i] = p.ID()
	}
	if err := pool.DropAll(); err != nil {
		tb.Fatal(err)
	}
	return pool, ids
}

func BenchmarkPoolGetHit(b *testing.B) {
	pool, ids := poolWithColdPages(b, 64, 32) // everything fits
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
	pool, ids := poolWithColdPages(b, 64, 10)
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
	pool, ids := poolWithColdPages(b, 2, 512) // nearly every access misses
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pool.Get(ids[rng.Intn(len(ids))]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPoolGetMissLatency is BenchmarkPoolGetMiss with a 100µs seek
// per miss: ns/op is the wait a miss really pays for its configured
// latency.
func BenchmarkPoolGetMissLatency(b *testing.B) {
	pool, ids := poolWithColdPages(b, 2, 512)
	pool.SetIOLatency(100 * time.Microsecond)
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
