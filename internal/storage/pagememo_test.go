package storage

import (
	"context"
	"errors"
	"sync"
	"testing"

	"dsks/internal/fault"
)

// TestViewPageOutlivesItsFrame pins the page contract PageMemo rests on:
// a page read through a pinned view stays byte-identical after its frame
// is evicted, after FoldTo drops it and after a later-LSN Publish of the
// same page ID, while other goroutines do exactly those things (the test
// is meant for -race).
func TestViewPageOutlivesItsFrame(t *testing.T) {
	pool := NewBufferPool(NewPageFile(), 2, nil)
	const pages = 6
	ids := make([]PageID, pages)
	for i := range ids {
		ids[i] = newMVCCPage(t, pool, uint32(100+i))
	}
	if err := pool.DropAll(); err != nil {
		t.Fatal(err)
	}
	// LSN 1 rewrites the first half, so the reader at LSN 1 holds both
	// overlay versions and base frames.
	w := pool.NewBatch(1)
	for _, id := range ids[:pages/2] {
		p, err := w.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		p.PutUint32(0, p.Uint32(0)+1000)
		w.MarkDirty(id)
	}
	pool.Publish(w, nil)

	view := pool.ViewAt(1)
	held := make([]*Page, pages)
	want := make([][PageSize]byte, pages)
	for i, id := range ids {
		p, err := view.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		held[i], want[i] = p, p.data
	}
	check := func(when string) {
		for i, p := range held {
			if p.data != want[i] {
				t.Errorf("page %d changed under its holder %s (first word now %d)", ids[i], when, p.Uint32(0))
			}
		}
	}

	var wg sync.WaitGroup
	wg.Add(3)
	go func() { // a second reader cycling the two frames: every held frame is evicted
		defer wg.Done()
		for round := 0; round < 50; round++ {
			for _, id := range ids {
				if _, err := view.Get(id); err != nil {
					t.Error(err)
				}
			}
		}
	}()
	go func() { // the writer: later-LSN versions of every page, folded as it goes
		defer wg.Done()
		for lsn := uint64(2); lsn < 12; lsn++ {
			w := pool.NewBatch(lsn)
			for _, id := range ids {
				p, err := w.Get(id)
				if err != nil {
					t.Error(err)
					return
				}
				p.PutUint32(0, uint32(lsn)*10000)
				w.MarkDirty(id)
			}
			pool.Publish(w, nil)
			// The held view is pinned at 1: the fold may go no further.
			if err := pool.FoldTo(1); err != nil {
				t.Error(err)
			}
		}
	}()
	go func() { // the holder re-reads its pages throughout
		defer wg.Done()
		for round := 0; round < 200; round++ {
			for i, p := range held {
				if p.data != want[i] {
					t.Errorf("page %d changed under its holder mid-run", ids[i])
					return
				}
			}
		}
	}()
	wg.Wait()
	check("after eviction, fold and publish")

	// The fold to 1 dropped the overlay versions and the base frames the
	// holder read; what it holds is what the view still answers.
	if err := pool.DropAll(); err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		p, err := view.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if p.data != want[i] {
			t.Errorf("view@1 re-read of page %d differs from the held copy", id)
		}
	}
	// Once the pin is gone the fold moves on and the base file changes;
	// the held pages still do not.
	if err := pool.FoldTo(11); err != nil {
		t.Fatal(err)
	}
	check("after the fold passed its LSN")
	if got := readAt(t, pool, ids[0], 11); got != 110000 {
		t.Fatalf("base after the last fold = %d, want 110000", got)
	}
}

// countingReader counts the requests that reach the memo's source, by page.
type countingReader struct {
	PageReader
	gets map[PageID]int
}

func (c *countingReader) GetCtx(ctx context.Context, id PageID) (*Page, error) {
	c.gets[id]++
	return c.PageReader.GetCtx(ctx, id)
}

func TestPageMemoReadsEachPageOnce(t *testing.T) {
	pool := NewBufferPool(NewPageFile(), 1, nil) // one frame: every other pool request misses
	ids := []PageID{newMVCCPage(t, pool, 7), newMVCCPage(t, pool, 8), newMVCCPage(t, pool, 9)}
	src := &countingReader{PageReader: pool.ViewAt(0), gets: map[PageID]int{}}
	m := NewPageMemo(src, 8)
	pool.Stats().Reset()
	for round := 0; round < 5; round++ {
		for i, id := range ids {
			p, err := m.Get(id)
			if err != nil {
				t.Fatal(err)
			}
			if p.ID() != id || p.Uint32(0) != uint32(7+i) {
				t.Fatalf("round %d: page %d read back as page %d holding %d", round, id, p.ID(), p.Uint32(0))
			}
		}
	}
	for _, id := range ids {
		if src.gets[id] != 1 {
			t.Errorf("page %d reached the source %d times, want 1", id, src.gets[id])
		}
	}
	if m.Held() != len(ids) {
		t.Errorf("Held = %d, want %d", m.Held(), len(ids))
	}
	// A memo hit is not a pool request: three logical reads, not fifteen.
	if io := pool.Stats().Snapshot(); io.LogicalRead != 3 || io.DiskRead != 3 {
		t.Errorf("pool saw %d logical / %d disk reads, want 3 / 3", io.LogicalRead, io.DiskRead)
	}
}

func TestPageMemoStopsAdmittingAtItsLimit(t *testing.T) {
	pool := NewBufferPool(NewPageFile(), 4, nil)
	ids := []PageID{newMVCCPage(t, pool, 1), newMVCCPage(t, pool, 2), newMVCCPage(t, pool, 3)}
	src := &countingReader{PageReader: pool, gets: map[PageID]int{}}
	m := NewPageMemo(src, 2)
	for round := 0; round < 3; round++ {
		for i, id := range ids {
			p, err := m.Get(id)
			if err != nil {
				t.Fatal(err)
			}
			if p.Uint32(0) != uint32(1+i) {
				t.Fatalf("page %d holds %d, want %d", id, p.Uint32(0), 1+i)
			}
		}
		if m.Held() != 2 {
			t.Fatalf("round %d: Held = %d, want the limit 2", round, m.Held())
		}
	}
	// The first two pages were admitted and read once; the third passes
	// through on every request.
	if src.gets[ids[0]] != 1 || src.gets[ids[1]] != 1 || src.gets[ids[2]] != 3 {
		t.Errorf("source requests = %v, want 1, 1 and 3", src.gets)
	}
}

// TestPageMemoChecksContextOnHit is the storage half of "a cancelled
// query stops on its next page": a held page is not handed to a done ctx.
func TestPageMemoChecksContextOnHit(t *testing.T) {
	pool := NewBufferPool(NewPageFile(), 4, nil)
	id := newMVCCPage(t, pool, 1)
	m := NewPageMemo(pool.ViewAt(0), 4)
	ctx, cancel := context.WithCancel(context.Background())
	if _, err := m.GetCtx(ctx, id); err != nil {
		t.Fatal(err)
	}
	before := pool.Stats().Snapshot()
	cancel()
	if _, err := m.GetCtx(ctx, id); !errors.Is(err, context.Canceled) {
		t.Fatalf("memo hit under a cancelled ctx: %v, want context.Canceled", err)
	}
	if pool.Stats().Snapshot() != before {
		t.Error("the refused hit touched the pool counters")
	}
	if _, err := m.Get(id); err != nil {
		t.Fatalf("the memo must stay usable after a refused hit: %v", err)
	}
}

func TestPageMemoDoesNotHoldFailedReads(t *testing.T) {
	pool, file, id := newPoolWithPage(t)
	file.SetInjector(failing(t, fault.Config{Op: fault.OpRead}))
	m := NewPageMemo(pool.ViewAt(0), 4)
	if _, err := m.Get(id); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("read through a failing store: %v, want the injected fault", err)
	}
	if m.Held() != 0 {
		t.Fatalf("a failed read was held (Held = %d)", m.Held())
	}
	file.SetInjector(nil)
	if _, err := m.Get(id); err != nil {
		t.Fatalf("read after the fault cleared: %v", err)
	}
	if m.Held() != 1 {
		t.Fatalf("Held = %d after one good read, want 1", m.Held())
	}
}
