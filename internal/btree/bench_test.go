package btree

import (
	"math/rand"
	"testing"
)

func benchTree(b *testing.B, n int) *Tree {
	b.Helper()
	entries := make([]Entry, n)
	for i := range entries {
		entries[i] = Entry{Key: uint64(i) * 3, Value: benchValue(i)}
	}
	tr, err := BulkLoad(newPool(1024), entries)
	if err != nil {
		b.Fatal(err)
	}
	return tr
}

// benchValue has the size mix of the served index's posting lists: three
// in four hold one 16-byte posting, the rest a few, one in a hundred many.
func benchValue(i int) []byte {
	n := 1
	switch {
	case i%100 == 0:
		n = 13 + i%50
	case i%4 == 0:
		n = 2 + i%5
	}
	return val(uint64(i), 16*n)
}

var sinkValue []byte

// BenchmarkGet reports page requests per lookup beside the time: the
// value comes out of the leaf the descent ends on, so it is the height.
func BenchmarkGet(b *testing.B) {
	tr := benchTree(b, 100_000)
	rng := rand.New(rand.NewSource(1))
	io := tr.pool.Stats()
	before := io.LogicalRead.Load()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := tr.Get(uint64(rng.Intn(100_000)) * 3)
		if err != nil {
			b.Fatal(err)
		}
		sinkValue = v
	}
	b.ReportMetric(float64(io.LogicalRead.Load()-before)/float64(b.N), "pages/op")
}

func BenchmarkPut(b *testing.B) {
	tr, err := New(newPool(1024))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tr.Put(uint64(i)*7919%1_000_003, benchValue(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBulkLoad(b *testing.B) {
	const n = 100_000
	entries := make([]Entry, n)
	for i := range entries {
		entries[i] = Entry{Key: uint64(i), Value: benchValue(i)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BulkLoad(newPool(1024), entries); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScan(b *testing.B) {
	tr := benchTree(b, 100_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		count := 0
		if err := tr.Scan(0, ^uint64(0), func(k, size uint64) bool {
			count++
			return true
		}); err != nil {
			b.Fatal(err)
		}
		if count != 100_000 {
			b.Fatalf("scanned %d", count)
		}
	}
}

func BenchmarkGetColdBuffer(b *testing.B) {
	// A 3-frame pool forces nearly every access to miss.
	entries := make([]Entry, 100_000)
	for i := range entries {
		entries[i] = Entry{Key: uint64(i), Value: benchValue(i)}
	}
	pool := newPool(3)
	tr, err := BulkLoad(pool, entries)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.Get(uint64(rng.Intn(100_000))); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(pool.Stats().Snapshot().DiskRead)/float64(b.N), "reads/op")
}
