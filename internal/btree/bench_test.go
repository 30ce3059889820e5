package btree

import (
	"math/rand"
	"slices"
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
// directory names the leaf and the value comes out of it, so it is 1.
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

// BenchmarkPut inserts into a tree grown by puts from empty, and into a
// bulk-loaded one whose leaves are packed, as the served index's are, with
// one-posting values (16 B), the served index's commonest: a leaf holds
// 157 of them and has 10 bytes to spare. Every put of the packed case adds
// one more to a leaf no put has touched, so it splits the leaf and clones
// the directory (12 B a leaf; the tree has ≈3,200 leaves, about the served
// index's count): B/op and allocs/op are the price of a split, clone
// included. The tree is loaded again, off the clock, once every leaf has
// split.
func BenchmarkPut(b *testing.B) {
	b.Run("empty", func(b *testing.B) {
		tr, err := New(newPool(1024))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := tr.Put(uint64(i)*7919%1_000_003, benchValue(i)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("packed", func(b *testing.B) {
		const n = 500_000
		entries := make([]Entry, n)
		for i := range entries {
			entries[i] = Entry{Key: uint64(i) * 3, Value: val(uint64(i), 16)}
		}
		var tr *Tree
		var lows []uint64 // the loaded tree's low keys, in a scattered order
		splits := 0
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if len(lows) == 0 {
				b.StopTimer()
				var err error
				if tr, err = BulkLoad(newPool(4096), entries); err != nil {
					b.Fatal(err)
				}
				lows = slices.Clone(tr.Meta().Lows)
				rand.New(rand.NewSource(int64(i))).Shuffle(len(lows), func(i, j int) { lows[i], lows[j] = lows[j], lows[i] })
				b.StartTimer()
			}
			leaves := tr.NumPages()
			// A new key just above the first of a full leaf.
			if err := tr.Put(lows[0]+1, val(uint64(i), 16)); err != nil {
				b.Fatal(err)
			}
			lows = lows[1:]
			splits += tr.NumPages() - leaves
		}
		b.ReportMetric(float64(splits)/float64(b.N), "splits/op")
	})
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
