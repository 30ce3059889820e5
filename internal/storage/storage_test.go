package storage

import (
	"testing"
	"testing/quick"
)

func TestPageAccessors(t *testing.T) {
	var p Page
	p.PutUint16(0, 0xBEEF)
	if p.Uint16(0) != 0xBEEF {
		t.Error("uint16 roundtrip")
	}
	p.PutUint32(10, 0xDEADBEEF)
	if p.Uint32(10) != 0xDEADBEEF {
		t.Error("uint32 roundtrip")
	}
	p.PutUint64(100, 1<<60|7)
	if p.Uint64(100) != 1<<60|7 {
		t.Error("uint64 roundtrip")
	}
	p.PutFloat64(200, 3.25)
	if p.Float64(200) != 3.25 {
		t.Error("float64 roundtrip")
	}
}

func TestPageReadWriteAt(t *testing.T) {
	var p Page
	if err := p.WriteAt(PageSize-3, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 3)
	if err := p.ReadAt(PageSize-3, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 || got[2] != 3 {
		t.Errorf("got %v", got)
	}
	if err := p.WriteAt(PageSize-2, []byte{1, 2, 3}); err == nil {
		t.Error("write past end did not fail")
	}
	if err := p.ReadAt(-1, got); err == nil {
		t.Error("negative read did not fail")
	}
}

func TestPageFileAllocateReadWrite(t *testing.T) {
	f := NewPageFile()
	if f.NumPages() != 0 {
		t.Fatalf("fresh file has %d pages", f.NumPages())
	}
	a, b := f.Allocate(), f.Allocate()
	if a == InvalidPageID || b == InvalidPageID || a == b {
		t.Fatalf("bad ids %d %d", a, b)
	}
	src := make([]byte, PageSize)
	src[0], src[PageSize-1] = 0xAB, 0xCD
	if err := f.write(a, src); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, PageSize)
	if err := f.read(a, dst); err != nil {
		t.Fatal(err)
	}
	if dst[0] != 0xAB || dst[PageSize-1] != 0xCD {
		t.Error("page bytes lost")
	}
	if err := f.read(InvalidPageID, dst); err == nil {
		t.Error("reading null page did not fail")
	}
	if err := f.read(PageID(99), dst); err == nil {
		t.Error("reading unallocated page did not fail")
	}
	if f.SizeBytes() != 2*PageSize {
		t.Errorf("SizeBytes = %d", f.SizeBytes())
	}
}

func TestBufferPoolHitMiss(t *testing.T) {
	f := NewPageFile()
	stats := &IOStats{}
	pool := NewBufferPool(f, 2, stats)
	p, err := pool.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	id := p.ID()
	p.PutUint32(0, 42)
	pool.MarkDirty(id)
	if err := pool.Flush(); err != nil {
		t.Fatal(err)
	}

	// First Get after DropAll is a miss; second is a hit.
	if err := pool.DropAll(); err != nil {
		t.Fatal(err)
	}
	stats.Reset()
	if _, err := pool.Get(id); err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Get(id); err != nil {
		t.Fatal(err)
	}
	s := stats.Snapshot()
	if s.LogicalRead != 2 || s.DiskRead != 1 {
		t.Errorf("stats = %d logical / %d disk, want 2 logical / 1 disk", s.LogicalRead, s.DiskRead)
	}
}

func TestBufferPoolEvictionWritesBack(t *testing.T) {
	f := NewPageFile()
	pool := NewBufferPool(f, 1, nil) // single frame forces eviction
	a, err := pool.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	aid := a.ID()
	a.PutUint64(0, 111)
	pool.MarkDirty(aid)

	b, err := pool.Allocate() // evicts a, which must be written back
	if err != nil {
		t.Fatal(err)
	}
	bid := b.ID()
	b.PutUint64(0, 222)
	pool.MarkDirty(bid)

	got, err := pool.Get(aid) // evicts b
	if err != nil {
		t.Fatal(err)
	}
	if got.Uint64(0) != 111 {
		t.Errorf("page a = %d after eviction round-trip", got.Uint64(0))
	}
	got, err = pool.Get(bid)
	if err != nil {
		t.Fatal(err)
	}
	if got.Uint64(0) != 222 {
		t.Errorf("page b = %d after eviction round-trip", got.Uint64(0))
	}
}

func TestBufferPoolLRUOrder(t *testing.T) {
	f := NewPageFile()
	stats := &IOStats{}
	pool := NewBufferPool(f, 2, stats)
	var ids []PageID
	for i := 0; i < 3; i++ {
		p, err := pool.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		p.PutUint32(0, uint32(i))
		pool.MarkDirty(p.ID())
		ids = append(ids, p.ID())
	}
	if err := pool.DropAll(); err != nil {
		t.Fatal(err)
	}
	// Touch 0, 1; then touching 0 again and fetching 2 must evict 1.
	mustGet := func(id PageID) {
		t.Helper()
		if _, err := pool.Get(id); err != nil {
			t.Fatal(err)
		}
	}
	mustGet(ids[0])
	mustGet(ids[1])
	mustGet(ids[0]) // refresh 0
	mustGet(ids[2]) // evicts 1
	stats.Reset()
	mustGet(ids[0]) // hit
	s := stats.Snapshot()
	if s.DiskRead != 0 {
		t.Errorf("page 0 was evicted despite LRU refresh")
	}
	mustGet(ids[1]) // miss
	if stats.Snapshot().DiskRead != 1 {
		t.Errorf("page 1 should have been evicted")
	}
}

func TestFramesForBudget(t *testing.T) {
	if got := FramesForBudget(0); got != 1 {
		t.Errorf("zero budget -> %d frames", got)
	}
	if got := FramesForBudget(10 * PageSize); got != 10 {
		t.Errorf("10-page budget -> %d", got)
	}
}

func TestPageDataRoundTripQuick(t *testing.T) {
	f := func(off uint16, v uint64) bool {
		var p Page
		o := int(off) % (PageSize - 8)
		p.PutUint64(o, v)
		return p.Uint64(o) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIOStatsConcurrent(t *testing.T) {
	f := NewPageFile()
	stats := &IOStats{}
	pool := NewBufferPool(f, 4, stats)
	ids := make([]PageID, 8)
	for i := range ids {
		p, err := pool.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = p.ID()
	}
	if err := pool.DropAll(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 4)
	for w := 0; w < 4; w++ {
		go func(w int) {
			for i := 0; i < 100; i++ {
				if _, err := pool.Get(ids[(w+i)%len(ids)]); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(w)
	}
	for w := 0; w < 4; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if got := stats.Snapshot().LogicalRead; got != 400 {
		t.Errorf("logical reads = %d, want 400", got)
	}
}
