package storage

import "testing"

// newMVCCPage allocates one flushed base page holding val at offset 0.
func newMVCCPage(t *testing.T, pool *BufferPool, val uint32) PageID {
	t.Helper()
	p, err := pool.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	p.PutUint32(0, val)
	pool.MarkDirty(p.ID())
	if err := pool.Flush(); err != nil {
		t.Fatal(err)
	}
	return p.ID()
}

// readAt returns the uint32 at offset 0 as of the given LSN.
func readAt(t *testing.T, pool *BufferPool, id PageID, lsn uint64) uint32 {
	t.Helper()
	p, err := pool.ViewAt(lsn).Get(id)
	if err != nil {
		t.Fatal(err)
	}
	return p.Uint32(0)
}

func TestWriteBatchInvisibleUntilPublish(t *testing.T) {
	pool := NewBufferPool(NewPageFile(), 4, nil)
	id := newMVCCPage(t, pool, 100)

	w := pool.NewBatch(1)
	p, err := w.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Uint32(0); got != 100 {
		t.Fatalf("batch read = %d, want 100", got)
	}
	p.PutUint32(0, 200)
	w.MarkDirty(id)

	// Nothing published: base pool and any view still read 100.
	if got := readAt(t, pool, id, 1); got != 100 {
		t.Fatalf("pre-publish view read = %d, want 100", got)
	}
	base, err := pool.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if got := base.Uint32(0); got != 100 {
		t.Fatalf("pre-publish base read = %d, want 100", got)
	}
	if n := pool.OverlayPages(); n != 0 {
		t.Fatalf("OverlayPages before publish = %d, want 0", n)
	}

	pool.Publish(w, nil)
	if n := pool.OverlayPages(); n != 1 {
		t.Fatalf("OverlayPages after publish = %d, want 1", n)
	}
	// A view pinned before the commit keeps the old value; at or after it,
	// the new one.
	if got := readAt(t, pool, id, 0); got != 100 {
		t.Fatalf("view@0 = %d, want 100", got)
	}
	if got := readAt(t, pool, id, 1); got != 200 {
		t.Fatalf("view@1 = %d, want 200", got)
	}
	if got := readAt(t, pool, id, 7); got != 200 {
		t.Fatalf("view@7 = %d, want 200", got)
	}
}

func TestWriteBatchDroppedChangesNothing(t *testing.T) {
	pool := NewBufferPool(NewPageFile(), 4, nil)
	id := newMVCCPage(t, pool, 5)

	w := pool.NewBatch(1)
	p, err := w.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	p.PutUint32(0, 6)
	w.MarkDirty(id)
	if _, err := w.Allocate(); err != nil {
		t.Fatal(err)
	}
	// The batch goes out of scope unpublished: no overlay entry, base
	// bytes untouched (only the abandoned allocation grew the file).
	w = nil
	_ = w
	if n := pool.OverlayPages(); n != 0 {
		t.Fatalf("OverlayPages after dropped batch = %d, want 0", n)
	}
	if got := readAt(t, pool, id, 99); got != 5 {
		t.Fatalf("read after dropped batch = %d, want 5", got)
	}
}

func TestWriteBatchReadsNewestPublishedVersion(t *testing.T) {
	pool := NewBufferPool(NewPageFile(), 4, nil)
	id := newMVCCPage(t, pool, 1)

	for lsn := uint64(2); lsn <= 4; lsn++ {
		w := pool.NewBatch(lsn)
		p, err := w.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		// Each batch must see the previous commit, not the base file.
		if got, want := p.Uint32(0), uint32(lsn-1); got != want {
			t.Fatalf("batch@%d read = %d, want %d", lsn, got, want)
		}
		p.PutUint32(0, uint32(lsn))
		w.MarkDirty(id)
		pool.Publish(w, nil)
	}
	// Every pinned LSN resolves its own version.
	for lsn := uint64(1); lsn <= 4; lsn++ {
		if got := readAt(t, pool, id, lsn); got != uint32(lsn) {
			t.Fatalf("view@%d = %d, want %d", lsn, got, lsn)
		}
	}
}

func TestFoldToWritesBackAndTrims(t *testing.T) {
	f := NewPageFile()
	pool := NewBufferPool(f, 4, nil)
	id := newMVCCPage(t, pool, 1)

	for lsn := uint64(2); lsn <= 3; lsn++ {
		w := pool.NewBatch(lsn)
		p, err := w.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		p.PutUint32(0, uint32(lsn))
		w.MarkDirty(id)
		pool.Publish(w, nil)
	}

	// Fold through LSN 2: the lsn-2 bytes reach the base file, the lsn-3
	// version stays in the overlay.
	if err := pool.FoldTo(2); err != nil {
		t.Fatal(err)
	}
	if n := pool.OverlayPages(); n != 1 {
		t.Fatalf("OverlayPages after FoldTo(2) = %d, want 1 (lsn-3 version kept)", n)
	}
	var buf [PageSize]byte
	if err := f.read(id, buf[:]); err != nil {
		t.Fatal(err)
	}
	if got := (&Page{data: buf}).Uint32(0); got != 2 {
		t.Fatalf("base file after FoldTo(2) = %d, want 2", got)
	}
	// A reader still pinned at 2 reads the folded base; at 3, the overlay.
	if got := readAt(t, pool, id, 2); got != 2 {
		t.Fatalf("view@2 after fold = %d, want 2", got)
	}
	if got := readAt(t, pool, id, 3); got != 3 {
		t.Fatalf("view@3 after fold = %d, want 3", got)
	}

	if err := pool.FoldTo(3); err != nil {
		t.Fatal(err)
	}
	if n := pool.OverlayPages(); n != 0 {
		t.Fatalf("OverlayPages after FoldTo(3) = %d, want 0", n)
	}
	if got := readAt(t, pool, id, 3); got != 3 {
		t.Fatalf("view@3 after full fold = %d, want 3", got)
	}
}

func TestEpochsPinUnpinHorizon(t *testing.T) {
	var e Epochs
	if !e.Pin(3) || !e.Pin(3) || !e.Pin(7) {
		t.Fatal("fresh pins must succeed")
	}
	if got := e.Pinned(); got != 3 {
		t.Fatalf("Pinned = %d, want 3", got)
	}
	// The horizon stops at the minimum pinned LSN.
	if got := e.FoldHorizon(10); got != 3 {
		t.Fatalf("FoldHorizon(10) = %d, want 3", got)
	}
	e.Unpin(3)
	e.Unpin(3)
	if got := e.FoldHorizon(10); got != 7 {
		t.Fatalf("FoldHorizon(10) after unpin = %d, want 7", got)
	}
	e.Unpin(7)
	if got := e.FoldHorizon(10); got != 10 {
		t.Fatalf("FoldHorizon(10) with nothing pinned = %d, want 10", got)
	}
	// The horizon is monotone even if the current LSN runs behind it.
	if got := e.FoldHorizon(4); got != 10 {
		t.Fatalf("FoldHorizon(4) = %d, want 10 (monotone)", got)
	}
	// Pinning below the horizon fails: those versions may be reclaimed.
	if e.Pin(9) {
		t.Fatal("Pin(9) below the fold horizon must fail")
	}
	if !e.Pin(10) {
		t.Fatal("Pin(10) at the horizon must succeed")
	}
	if got := e.FoldHorizon(12); got != 10 {
		t.Fatalf("FoldHorizon(12) with pin at 10 = %d, want 10", got)
	}
}

func TestFoldRespectsPinnedReaders(t *testing.T) {
	pool := NewBufferPool(NewPageFile(), 4, nil)
	id := newMVCCPage(t, pool, 1)

	var e Epochs
	if !e.Pin(1) { // a reader opened before the mutation below
		t.Fatal("Pin(1) failed")
	}

	w := pool.NewBatch(2)
	p, err := w.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	p.PutUint32(0, 2)
	w.MarkDirty(id)
	pool.Publish(w, nil)

	// The pinned reader caps the horizon at 1, so the lsn-2 version stays
	// in the overlay and the reader keeps resolving the base bytes.
	if err := pool.FoldTo(e.FoldHorizon(2)); err != nil {
		t.Fatal(err)
	}
	if n := pool.OverlayPages(); n != 1 {
		t.Fatalf("OverlayPages with a pinned reader = %d, want 1", n)
	}
	if got := readAt(t, pool, id, 1); got != 1 {
		t.Fatalf("pinned view@1 = %d, want 1", got)
	}

	e.Unpin(1)
	if err := pool.FoldTo(e.FoldHorizon(2)); err != nil {
		t.Fatal(err)
	}
	if n := pool.OverlayPages(); n != 0 {
		t.Fatalf("OverlayPages after release = %d, want 0", n)
	}
	if got := readAt(t, pool, id, 2); got != 2 {
		t.Fatalf("view@2 after fold = %d, want 2", got)
	}
}
