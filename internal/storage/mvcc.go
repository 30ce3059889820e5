package storage

import (
	"context"
	"math"
)

// This file implements multi-version concurrency control at the page
// level: copy-on-write mutation batches, LSN-pinned read views and
// epoch-based reclamation over a BufferPool.
//
// The protocol is single-writer / many-readers, bolt-style:
//
//   - A mutator opens a WriteBatch stamped with its commit LSN. Every page
//     it touches is copied into the batch on first access; mutations go to
//     the private copies and newly allocated pages, never to shared frames
//     or the file. A failed mutation simply drops the batch — nothing was
//     ever visible.
//   - Publish installs the batch's dirty pages into the pool's version
//     overlay in one critical section. Readers pinned at an older LSN keep
//     resolving the older version (or the base file); readers pinned at or
//     after the commit LSN see the new one.
//   - A PageView resolves every Get against the overlay first (newest
//     version at or below its pin LSN) and falls back to the base
//     pool/file. Overlay hits count as logical reads, like buffer hits,
//     so the paper's disk-access accounting is unchanged.
//   - FoldTo(h) writes the newest version at or below horizon h of each
//     page back into the base file and drops every overlay entry at or
//     below h. The caller guarantees h is not above any pinned LSN (see
//     Epochs), which makes the fold invisible: no pinned reader can have
//     read the stale base of a folded page (a version at or below its pin
//     LSN existed in the overlay for the reader's whole lifetime), and no
//     pinned reader wants a version older than the folded one.
//
// The overlay lives outside the LRU: it is bounded by the mutation volume
// between folds, not by the pool capacity, and DropAll (cache cooling)
// deliberately leaves it alone — it is published truth, not cache.

// PageReader is the read-side page access interface: the plain BufferPool
// (reads the latest base state), a PageView (reads a pinned version) and a
// WriteBatch (reads through its own pending writes) all implement it.
type PageReader interface {
	Get(id PageID) (*Page, error)
	GetCtx(ctx context.Context, id PageID) (*Page, error)
}

// Pager adds the mutation surface to PageReader: the BufferPool implements
// it for build-time in-place writes, the WriteBatch for copy-on-write
// mutations.
type Pager interface {
	PageReader
	Allocate() (*Page, error)
	MarkDirty(id PageID)
}

// Interface conformance.
var (
	_ Pager      = (*BufferPool)(nil)
	_ Pager      = (*WriteBatch)(nil)
	_ PageReader = (*PageView)(nil)
)

// pageVersion is one published copy-on-write page version.
type pageVersion struct {
	lsn  uint64
	page *Page
}

// versionAt returns the newest overlay version of id at or below lsn, or
// nil when the base file is authoritative for that LSN.
func (b *BufferPool) versionAt(id PageID, lsn uint64) *Page {
	b.verMu.RLock()
	defer b.verMu.RUnlock()
	chain := b.versions[id]
	for i := len(chain) - 1; i >= 0; i-- {
		if chain[i].lsn <= lsn {
			return chain[i].page
		}
	}
	return nil
}

// OverlayPages returns the number of pages with at least one unfolded
// overlay version (observability and tests).
func (b *BufferPool) OverlayPages() int {
	b.verMu.RLock()
	defer b.verMu.RUnlock()
	return len(b.versions)
}

// NewBatch opens a copy-on-write mutation batch that will commit at lsn.
// The batch is private until Publish; dropping it undoes everything except
// file growth from Allocate (abandoned zero pages, the usual write
// amplification of merge-on-write files).
func (b *BufferPool) NewBatch(lsn uint64) *WriteBatch {
	return &WriteBatch{
		pool:  b,
		lsn:   lsn,
		pages: make(map[PageID]*Page),
		dirty: make(map[PageID]bool),
	}
}

// Publish atomically installs the batch's dirty pages as versions stamped
// with the batch LSN and then calls visible, the caller's step that makes
// the LSN reachable (the database's root swap), when it is not nil. The
// order is the commit protocol: a reader can pin the new LSN only after
// visible runs, and by then every page of the version is installed. The
// caller must not publish batches out of LSN order (chains must stay
// ascending); the single-writer discipline of the database latch
// guarantees this.
func (b *BufferPool) Publish(w *WriteBatch, visible func()) {
	b.verMu.Lock()
	if b.versions == nil {
		b.versions = make(map[PageID][]pageVersion)
	}
	for id := range w.dirty {
		b.versions[id] = append(b.versions[id], pageVersion{lsn: w.lsn, page: w.pages[id]})
	}
	b.verMu.Unlock()
	if visible != nil {
		visible()
	}
}

// ViewAt returns a reader pinned at lsn. The caller is responsible for
// keeping lsn pinned in an Epochs registry for the view's lifetime, so
// FoldTo never folds past it.
func (b *BufferPool) ViewAt(lsn uint64) *PageView {
	return &PageView{pool: b, lsn: lsn}
}

// FoldTo writes the newest version at or below horizon of every overlaid
// page back into the base file and drops the folded overlay entries. The
// caller must guarantee (via Epochs) that no reader is pinned below
// horizon. Write failures leave the affected page's overlay intact (the
// overlay stays authoritative; the fold retries on the next call) and are
// reported through the first error.
func (b *BufferPool) FoldTo(horizon uint64) error {
	type foldEntry struct {
		id   PageID
		page *Page
	}
	b.verMu.RLock()
	fold := make([]foldEntry, 0, len(b.versions))
	for id, chain := range b.versions {
		for i := len(chain) - 1; i >= 0; i-- {
			if chain[i].lsn <= horizon {
				fold = append(fold, foldEntry{id: id, page: chain[i].page})
				break
			}
		}
	}
	b.verMu.RUnlock()

	var firstErr error
	for _, f := range fold {
		// writeBack stamps before it writes, so a checksum-verified pool
		// treats the folded bytes as the new baseline.
		if err := b.writeBack(f.id, f.page.data[:]); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}

		// The cached base frame (if any) now holds stale bytes: drop it
		// before the overlay entries disappear, so no reader can resolve
		// the page to the stale frame. The frame object itself is left to
		// the garbage collector — pages handed out earlier stay stable.
		b.mu.Lock()
		if el, ok := b.frames[f.id]; ok {
			delete(b.frames, f.id)
			b.lru.Remove(el)
		}
		b.mu.Unlock()

		b.verMu.Lock()
		chain := b.versions[f.id]
		keep := chain[:0]
		for _, v := range chain {
			if v.lsn > horizon {
				keep = append(keep, v)
			}
		}
		if len(keep) == 0 {
			delete(b.versions, f.id)
		} else {
			b.versions[f.id] = append([]pageVersion(nil), keep...)
		}
		b.verMu.Unlock()
	}
	return firstErr
}

// WriteBatch is a private copy-on-write staging area for one mutation.
// Reads resolve batch-local copies first, then the newest published
// version, then the base pool; the first access to a shared page copies it
// into the batch. Only pages passed to MarkDirty (and thus actually
// modified) are published.
//
// A WriteBatch is not safe for concurrent use; the database's writer latch
// serializes mutators.
type WriteBatch struct {
	pool  *BufferPool
	lsn   uint64
	pages map[PageID]*Page
	dirty map[PageID]bool
}

// LSN returns the batch's commit LSN.
func (w *WriteBatch) LSN() uint64 { return w.lsn }

// Pages returns how many pages the batch has touched (copies plus fresh
// allocations).
func (w *WriteBatch) Pages() int { return len(w.pages) }

// Get returns the batch's view of the page, copying it in on first touch.
func (w *WriteBatch) Get(id PageID) (*Page, error) {
	return w.GetCtx(context.Background(), id)
}

// GetCtx is Get with cancellation on the underlying base read.
func (w *WriteBatch) GetCtx(ctx context.Context, id PageID) (*Page, error) {
	if p, ok := w.pages[id]; ok {
		return p, nil
	}
	private := &Page{id: id}
	// A mutator reads the latest committed state: the newest published
	// version regardless of LSN (the single writer always commits above
	// every published LSN), else the base pool.
	if src := w.pool.versionAt(id, math.MaxUint64); src != nil {
		w.pool.stats.addRead(false)
		private.data = src.data
	} else {
		src, err := w.pool.GetCtx(ctx, id)
		if err != nil {
			return nil, err
		}
		private.data = src.data
	}
	w.pages[id] = private
	return private, nil
}

// Allocate reserves a fresh page on the backing file and adds it to the
// batch. The page reaches the base file only through Publish + FoldTo; a
// dropped batch leaves a zero page behind.
func (w *WriteBatch) Allocate() (*Page, error) {
	id := w.pool.file.Allocate()
	p := &Page{id: id}
	w.pages[id] = p
	return p, nil
}

// MarkDirty records that the batch's copy of the page was modified, so
// Publish installs it as a new version.
func (w *WriteBatch) MarkDirty(id PageID) {
	if _, ok := w.pages[id]; ok {
		w.dirty[id] = true
	}
}

// PageView reads one pinned LSN: the newest overlay version at or below
// the pin, falling back to the base pool. Overlay hits are logical reads
// (no disk access), exactly like buffer hits. A PageView is safe for
// concurrent use and stays consistent for as long as its LSN is pinned in
// the owning Epochs registry.
type PageView struct {
	pool *BufferPool
	lsn  uint64
}

// LSN returns the view's pin LSN.
func (v *PageView) LSN() uint64 { return v.lsn }

// Get returns the page as of the view's LSN.
func (v *PageView) Get(id PageID) (*Page, error) {
	return v.GetCtx(context.Background(), id)
}

// GetCtx is Get with cancellation on the underlying base read.
func (v *PageView) GetCtx(ctx context.Context, id PageID) (*Page, error) {
	if p := v.pool.versionAt(id, v.lsn); p != nil {
		v.pool.stats.addRead(false)
		return p, nil
	}
	return v.pool.GetCtx(ctx, id)
}
