package storage

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
	"sync/atomic"
	"time"
)

// ErrCorruptPage reports a page whose bytes failed checksum verification
// on a buffer miss: the store returned data that differs from what the
// pool last wrote back (a bit flip, a torn write, or any other silent
// media corruption). The page's data is never returned to the caller.
var ErrCorruptPage = errors.New("storage: corrupt page (checksum mismatch)")

// castagnoli is the CRC32C polynomial table used for page checksums —
// the same polynomial storage engines use for on-disk block checksums.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Default retry policy for transient read faults.
const (
	defaultRetryMax  = 3
	defaultRetryBase = 200 * time.Microsecond
)

// IOCounters is a point-in-time copy of a pool's I/O counters.
type IOCounters struct {
	LogicalRead int64 // page requests
	DiskRead    int64 // buffer misses (the paper's "# disk accesses")
	DiskWrite   int64 // page write-backs
	ReadRetries int64 // transient read faults retried
	CorruptPage int64 // checksum failures detected
}

// IOStats counts the logical and physical page accesses performed through a
// buffer pool. Reads that hit the buffer are logical only; buffer misses
// count as disk accesses — the metric the paper reports. ReadRetries and
// CorruptPages track the robustness machinery: transient faults absorbed
// by the retry loop and checksum failures detected on miss.
//
// Every counter is a plain atomic, so recording and resetting are both
// latch-free: a Reset is an atomic swap per counter and can never stall a
// concurrent reader or writer. A Snapshot taken while counters move is not
// a single consistent cut across counters, only per-counter exact — all
// consumers aggregate deltas, for which this is sufficient.
type IOStats struct {
	LogicalRead  atomic.Int64
	DiskRead     atomic.Int64
	DiskWrite    atomic.Int64
	ReadRetries  atomic.Int64
	CorruptPages atomic.Int64
}

// Snapshot returns a copy of the counters.
func (s *IOStats) Snapshot() IOCounters {
	return IOCounters{
		LogicalRead: s.LogicalRead.Load(),
		DiskRead:    s.DiskRead.Load(),
		DiskWrite:   s.DiskWrite.Load(),
		ReadRetries: s.ReadRetries.Load(),
		CorruptPage: s.CorruptPages.Load(),
	}
}

// Reset zeroes all counters with one atomic swap each; no latch is taken,
// so in-flight queries keep counting without ever blocking on the reset.
func (s *IOStats) Reset() {
	s.LogicalRead.Swap(0)
	s.DiskRead.Swap(0)
	s.DiskWrite.Swap(0)
	s.ReadRetries.Swap(0)
	s.CorruptPages.Swap(0)
}

func (s *IOStats) addRead(miss bool) {
	s.LogicalRead.Add(1)
	if miss {
		s.DiskRead.Add(1)
	}
}

func (s *IOStats) addWrite() { s.DiskWrite.Add(1) }

func (s *IOStats) addRetry() { s.ReadRetries.Add(1) }

func (s *IOStats) addCorrupt() { s.CorruptPages.Add(1) }

// transientFault reports whether err marks itself retryable — the
// contract fault.Error (internal/fault) satisfies through its
// TransientFault method. The anonymous interface keeps storage free of
// a fault-package dependency.
func transientFault(err error) bool {
	var t interface{ TransientFault() bool }
	return errors.As(err, &t) && t.TransientFault()
}

// BufferPool is an LRU page cache in front of a PageFile. The paper uses an
// LRU buffer sized at 2% of the network dataset; use FramesForBudget to
// derive the frame count. BufferPool is safe for concurrent use.
//
// The page contract. A frame is never recycled: every miss reads into a
// freshly allocated frame, and eviction, DropAll and FoldTo only unlink a
// frame from the pool, leaving the *Page to the garbage collector. A base
// page is written in place only through the pool's own Pager surface
// (Allocate, Get + MarkDirty), which is the single-threaded build path and
// ends before the first reader; from then on every mutation goes to the
// private copies of a WriteBatch, Publish adds versions beside the ones
// that exist and FoldTo writes the file, not a frame. So a *Page read
// through a pinned PageView is immutable and stays valid and
// byte-identical for as long as the reader holds it — after its frame is
// evicted, after a fold drops it and after a later-LSN Publish of the same
// page ID. PageMemo rests on this. A build-path caller that mutates a page
// must call MarkDirty before releasing it.
//
// With checksums enabled (SetChecksums) the pool stamps a CRC32C of every
// page it writes back and verifies it when the page is next read on a
// miss; a mismatch fails the read with an error matching ErrCorruptPage
// and the corrupt bytes are never admitted to the buffer. The sums are
// kept out-of-band (a side table, not page bytes), so the page layout and
// the paper's byte-exact accounting are unchanged; verification is off by
// default.
type BufferPool struct {
	mu        sync.Mutex
	file      *PageFile
	frames    map[PageID]*list.Element
	lru       *list.List // front = most recently used
	capacity  int
	stats     *IOStats
	ioLatency time.Duration

	// retryMax/retryBase bound the exponential-backoff retry of
	// transient read faults on the miss path.
	retryMax  int
	retryBase time.Duration

	// sumMu guards sums, the out-of-band CRC32C per page written back.
	// nil sums = checksums disabled. Taken after mu when both are held.
	sumMu sync.Mutex
	sums  map[PageID]uint32

	// verMu guards versions, the multi-version overlay: per page, the
	// LSN-stamped copy-on-write versions published by committed WriteBatches
	// and not yet folded back into the base file. Chains are ascending by
	// LSN. verMu is never held together with mu (the overlay check and the
	// base read are separate critical sections), so there is no ordering
	// constraint between them.
	verMu    sync.RWMutex
	versions map[PageID][]pageVersion
}

type frame struct {
	page  Page
	dirty bool
}

// NewBufferPool creates a pool with the given number of frames (minimum 1)
// over file. stats may be nil, in which case a private IOStats is created.
// The capacity is a bound, not a reservation: a structure is built in a
// pool far roomier than its file (a million frames), so the frame table
// grows with the pages actually held.
func NewBufferPool(file *PageFile, capacity int, stats *IOStats) *BufferPool {
	if capacity < 1 {
		capacity = 1
	}
	if stats == nil {
		stats = &IOStats{}
	}
	return &BufferPool{
		file:      file,
		frames:    make(map[PageID]*list.Element),
		lru:       list.New(),
		capacity:  capacity,
		stats:     stats,
		retryMax:  defaultRetryMax,
		retryBase: defaultRetryBase,
	}
}

// FramesForBudget returns the number of frames an LRU buffer of
// budgetBytes holds (at least 1).
func FramesForBudget(budgetBytes int64) int {
	n := int(budgetBytes / PageSize)
	if n < 1 {
		n = 1
	}
	return n
}

// SetIOLatency injects a synthetic delay per buffer miss, making response
// time I/O-bound as on a spinning-disk testbed. Zero disables the delay.
// On Linux a miss blocks its thread in the kernel for d, as a real pread
// blocks on its seek, so a miss pays d plus a few microseconds rather
// than the Go runtime's 1ms timer floor; elsewhere it waits on a Go
// timer.
func (b *BufferPool) SetIOLatency(d time.Duration) {
	b.mu.Lock()
	b.ioLatency = d
	b.mu.Unlock()
}

// SetChecksums enables (or disables) per-page CRC32C checksums: stamped
// on every write-back from now on, verified on every buffer miss for
// pages that have a stamp. Disabling drops all stamps.
func (b *BufferPool) SetChecksums(on bool) {
	b.sumMu.Lock()
	if on && b.sums == nil {
		b.sums = make(map[PageID]uint32)
	} else if !on {
		b.sums = nil
	}
	b.sumMu.Unlock()
}

// setRetry configures the transient-read-fault retry policy: at most max
// retries, sleeping base, 2*base, 4*base, ... between attempts. max 0
// disables retries; base 0 keeps the default backoff. Only tests vary it;
// every served pool keeps the defaults.
func (b *BufferPool) setRetry(max int, base time.Duration) {
	b.mu.Lock()
	if max < 0 {
		max = 0
	}
	if base <= 0 {
		base = defaultRetryBase
	}
	b.retryMax, b.retryBase = max, base
	b.mu.Unlock()
}

// stamp records the CRC32C of a page's bytes at write-back time.
func (b *BufferPool) stamp(id PageID, data []byte) {
	b.sumMu.Lock()
	if b.sums != nil {
		b.sums[id] = crc32.Checksum(data, castagnoli)
	}
	b.sumMu.Unlock()
}

// verify checks freshly-read page bytes against the stamp from the last
// write-back. A page read for the first time since checksums were enabled
// has no stamp yet; its bytes are adopted as the baseline (stamped now),
// so any later divergence is caught without a full-file scan at enable
// time.
func (b *BufferPool) verify(id PageID, data []byte) error {
	b.sumMu.Lock()
	defer b.sumMu.Unlock()
	if b.sums == nil {
		return nil
	}
	got := crc32.Checksum(data, castagnoli)
	want, ok := b.sums[id]
	if !ok {
		b.sums[id] = got
		return nil
	}
	if got != want {
		b.stats.addCorrupt()
		return fmt.Errorf("storage: page %d checksum mismatch (stored %08x, read %08x): %w",
			id, want, got, ErrCorruptPage)
	}
	return nil
}

// SetCapacity resizes the pool (minimum 1 frame), evicting LRU frames as
// needed. Builds run with a generous capacity, then shrink to the paper's
// 2%-of-dataset budget before queries.
func (b *BufferPool) SetCapacity(n int) error {
	if n < 1 {
		n = 1
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.capacity = n
	return b.evictToLocked(n)
}

// Stats returns the pool's I/O counters.
func (b *BufferPool) Stats() *IOStats { return b.stats }

// File returns the underlying page store.
func (b *BufferPool) File() *PageFile { return b.file }

// Allocate reserves a new page on the backing file and returns it pinned in
// the buffer (counted as neither read nor write until flushed). It fails
// only when the eviction that makes room cannot write its victim back.
func (b *BufferPool) Allocate() (*Page, error) {
	id := b.file.Allocate()
	b.mu.Lock()
	defer b.mu.Unlock()
	if err := b.evictForSpaceLocked(); err != nil {
		return nil, err
	}
	fr := &frame{dirty: true}
	fr.page.id = id
	b.frames[id] = b.lru.PushFront(fr)
	return &fr.page, nil
}

// Get returns the page with the given ID, loading it from the file on a
// buffer miss.
func (b *BufferPool) Get(id PageID) (*Page, error) {
	return b.GetCtx(context.Background(), id)
}

// GetCtx is Get with cancellation: a context that is already done fails
// before any counter is touched (no logical or disk read is recorded), and
// the injected IOLatency wait of a buffer miss (in the kernel on Linux,
// in slices of at most a millisecond) is interrupted when the context is
// canceled or its deadline expires mid-wait. The returned error wraps
// ctx.Err(), so errors.Is(err, context.Canceled) and
// errors.Is(err, context.DeadlineExceeded) hold.
//
// Transient read faults (errors exposing TransientFault() == true, as the
// fault injector's do) are retried with bounded exponential backoff; the
// retries are counted in the pool's IOStats. Permanent faults, corruption
// and exhausted retries fail the call.
func (b *BufferPool) GetCtx(ctx context.Context, id PageID) (*Page, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("storage: page %d read aborted: %w", id, err)
	}
	b.mu.Lock()
	if el, ok := b.frames[id]; ok {
		b.lru.MoveToFront(el)
		b.stats.addRead(false)
		p := &el.Value.(*frame).page
		b.mu.Unlock()
		return p, nil
	}
	b.stats.addRead(true)
	lat, retryMax, backoff := b.ioLatency, b.retryMax, b.retryBase
	b.mu.Unlock()

	// Miss path: the injected latency wait and the physical read happen
	// OUTSIDE the pool latch, so concurrent misses overlap instead of
	// serializing every query behind one simulated seek
	// (TestMissReadsOutsideTheLatch, TestHitDuringMissLatency). The page
	// is read into a private frame and admitted under the latch
	// afterwards.
	if lat > 0 {
		if err := waitIO(ctx, lat); err != nil {
			return nil, fmt.Errorf("storage: page %d read interrupted: %w", id, err)
		}
	}
	fr := &frame{}
	fr.page.id = id
	for attempt := 0; ; attempt++ {
		err := b.file.read(id, fr.page.data[:])
		if err == nil {
			if err := b.verify(id, fr.page.data[:]); err != nil {
				return nil, err
			}
			break
		}
		if attempt >= retryMax || !transientFault(err) {
			return nil, err
		}
		b.stats.addRetry()
		if serr := waitIO(ctx, backoff); serr != nil {
			return nil, fmt.Errorf("storage: page %d retry aborted after transient fault (%v): %w", id, err, serr)
		}
		backoff *= 2
	}

	b.mu.Lock()
	defer b.mu.Unlock()
	if el, ok := b.frames[id]; ok {
		// Another goroutine admitted the page while we were reading; use
		// its frame, which may already carry newer (dirty) data.
		b.lru.MoveToFront(el)
		return &el.Value.(*frame).page, nil
	}
	if err := b.evictForSpaceLocked(); err != nil {
		return nil, err
	}
	b.frames[id] = b.lru.PushFront(fr)
	return &fr.page, nil
}

// MarkDirty records that the page was modified so eviction writes it back.
func (b *BufferPool) MarkDirty(id PageID) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if el, ok := b.frames[id]; ok {
		el.Value.(*frame).dirty = true
	}
}

// Flush writes all dirty pages back to the file without evicting them.
func (b *BufferPool) Flush() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	for el := b.lru.Front(); el != nil; el = el.Next() {
		fr := el.Value.(*frame)
		if fr.dirty {
			// Under the latch on purpose: it pins every dirty frame until
			// its bytes hit the file, or MarkDirty could race the
			// write-back.
			if err := b.writeBack(fr.page.id, fr.page.data[:]); err != nil {
				return err
			}
			fr.dirty = false
		}
	}
	return nil
}

// DropAll flushes and then empties the buffer, so the next reads are cold.
// Experiments use this between the build phase and the query phase.
func (b *BufferPool) DropAll() error {
	if err := b.Flush(); err != nil {
		return err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.frames = make(map[PageID]*list.Element, b.capacity)
	b.lru.Init()
	return nil
}

// evictForSpaceLocked makes room for one more frame. Caller holds b.mu.
func (b *BufferPool) evictForSpaceLocked() error {
	return b.evictToLocked(b.capacity - 1)
}

// evictToLocked evicts LRU frames until at most n remain, writing back
// dirty victims. Caller holds b.mu; the write-back deliberately stays
// under the latch because a dirty victim must not be readable from the
// file map while its data is still in flight (dirty evictions only occur
// on write-heavy build paths and the resize between build and queries,
// never on the concurrent query path).
func (b *BufferPool) evictToLocked(n int) error {
	for len(b.frames) > n {
		el := b.lru.Back()
		if el == nil {
			return fmt.Errorf("storage: buffer pool with no evictable frame")
		}
		victim := el.Value.(*frame)
		if victim.dirty {
			if err := b.writeBack(victim.page.id, victim.page.data[:]); err != nil {
				return err
			}
		}
		delete(b.frames, victim.page.id)
		b.lru.Remove(el)
	}
	return nil
}

// writeBack is the one way page bytes reach the file: it stamps the
// checksum, writes and counts the write. Dirty eviction, the SetCapacity
// shrink, Flush and FoldTo all call it, so no write-back goes uncounted
// (TestWriteBacksAreCounted).
func (b *BufferPool) writeBack(id PageID, data []byte) error {
	b.stamp(id, data)
	if err := b.file.write(id, data); err != nil {
		return err
	}
	b.stats.addWrite()
	return nil
}
