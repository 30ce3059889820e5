// Package wal is the write-ahead log that makes database mutations
// durable: an append-only, CRC32C-protected, LSN-stamped record log
// layered on the storage layer's LogFile (so appends and fsyncs are
// counted and fault-injectable like page I/O).
//
// Mutators append a record, then block in WaitDurable until a group-
// commit goroutine has batched their record — together with every other
// record appended in the same window — into one fsync. A batch closes at
// 64 records or after a 2ms window, whichever comes first (unexported
// Options fields that only this package's tests vary), and every
// acknowledgment follows the fsync that covers its record. On startup, Open scans the log's segments,
// verifies every record's CRC and the density of the LSN chain, truncates
// a torn tail (bytes a crash left half-written, never acknowledged),
// rejects mid-log corruption with an error matching ErrCorrupt, and
// returns the records past the caller's snapshot LSN for replay. Checkpoint rotates
// the active segment and deletes segments a snapshot has made redundant.
package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"dsks/internal/metrics"
	"dsks/internal/storage"
)

// Sentinel errors.
var (
	// ErrCorrupt reports a log whose records cannot all be trusted:
	// a CRC mismatch or truncation before the final record, a gap in the
	// LSN chain, or a record that contradicts the snapshot it is being
	// replayed over.
	ErrCorrupt = errors.New("wal: corrupt log")
	// ErrClosed reports an operation on a closed (or poisoned and
	// therefore closed-to-appends) log.
	ErrClosed = errors.New("wal: log closed")
)

// CrashHook, when non-nil, is consulted at each named commit point of
// Checkpoint; a non-nil return aborts at exactly that point, simulating
// a crash mid-rotation or mid-compaction. Test-only, like persist's
// saveHook; production checkpoints never set it.
var CrashHook func(point string) error

// CrashPoints enumerates Checkpoint's crash points in execution order,
// for tests that crash a checkpoint at every one of them.
var CrashPoints = []string{
	"checkpoint-start",
	"rotate-create",
	"rotate-swap",
	"compact-unlink",
}

func fireCrashHook(point string) error {
	if CrashHook == nil {
		return nil
	}
	return CrashHook(point)
}

// Options configures a log.
type Options struct {
	// Metrics receives the log's counters (wal_appends_total,
	// wal_fsyncs_total, ...); nil uses a private registry.
	Metrics *metrics.Registry

	// syncEvery caps how many records accumulate before the group-commit
	// goroutine fsyncs without waiting out the interval (default 64).
	syncEvery int
	// syncInterval is the gathering window an unfilled batch waits for
	// more committers (default 2ms).
	syncInterval time.Duration
	// segmentBytes is the rotation threshold for the active segment
	// (default 4 MiB). Rotation happens at quiescent points (after a
	// sync that left nothing pending, and at every Checkpoint).
	segmentBytes int64
}

func (o Options) withDefaults() Options {
	if o.syncEvery <= 0 {
		o.syncEvery = 64
	}
	if o.syncInterval <= 0 {
		o.syncInterval = 2 * time.Millisecond
	}
	if o.segmentBytes <= 0 {
		o.segmentBytes = 4 << 20
	}
	if o.Metrics == nil {
		o.Metrics = metrics.NewRegistry()
	}
	return o
}

// closedSeg is a rotated (no longer appended-to) segment.
type closedSeg struct {
	first uint64 // first LSN the segment may contain
	path  string
}

// Log is an open write-ahead log. All methods are safe for concurrent
// use; Append serializes on the log's mutex while fsyncs run outside it.
type Log struct {
	dir  string
	opts Options

	mu   sync.Mutex
	work *sync.Cond // signals the group-commit goroutine
	dur  *sync.Cond // broadcast when durable advances (or the log dies)

	seg        *storage.LogFile // active segment
	segFirst   uint64           // first LSN the active segment may contain
	segPath    string
	segs       []closedSeg // rotated segments, oldest first
	inj        storage.Injector
	next       uint64 // next LSN to assign
	written    uint64 // last LSN appended (0 = none)
	durable    uint64 // last LSN fsynced
	durableOff int64  // active-segment offset after the last durable record
	err        error  // sticky: the log is poisoned, appends fail
	closing    bool
	closed     bool
	wg         sync.WaitGroup

	appends     *atomic.Int64
	fsyncs      *atomic.Int64
	syncedRecs  *atomic.Int64
	replayed    *atomic.Int64
	truncated   *atomic.Int64
	rotations   *atomic.Int64
	compactions *atomic.Int64
	durableLSN  *atomic.Int64
}

// segName renders the segment filename for its first LSN.
func segName(first uint64) string { return fmt.Sprintf("wal-%016x.seg", first) }

// Open opens (creating if needed) the log in dir and scans it. fromLSN
// is the LSN the caller's base state (a snapshot, or zero for a fresh
// build) already includes; the returned records are the verified tail
// past it, in LSN order, ready to replay. A torn tail — a final record
// a crash left incomplete — is truncated away (it was never
// acknowledged); corruption before the final record, a gap in the LSN
// chain, or a log that starts after fromLSN+1 fails with an error
// matching ErrCorrupt.
func Open(dir string, fromLSN uint64, opts Options) (*Log, []Record, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	l := &Log{
		dir:         dir,
		opts:        opts,
		appends:     opts.Metrics.Counter("wal_appends_total"),
		fsyncs:      opts.Metrics.Counter("wal_fsyncs_total"),
		syncedRecs:  opts.Metrics.Counter("wal_synced_records_total"),
		replayed:    opts.Metrics.Counter("wal_replayed_records_total"),
		truncated:   opts.Metrics.Counter("wal_truncated_bytes_total"),
		rotations:   opts.Metrics.Counter("wal_rotations_total"),
		compactions: opts.Metrics.Counter("wal_compacted_segments_total"),
		durableLSN:  opts.Metrics.Counter("wal_durable_lsn"),
	}
	l.work = sync.NewCond(&l.mu)
	l.dur = sync.NewCond(&l.mu)

	records, err := l.scan(fromLSN)
	if err != nil {
		return nil, nil, err
	}
	l.replayed.Add(int64(len(records)))
	l.durable = l.written
	l.durableLSN.Store(int64(l.durable))

	if l.segPath == "" {
		// Fresh log: the first segment starts at the next LSN.
		l.segFirst = l.next
		l.segPath = filepath.Join(dir, segName(l.segFirst))
	}
	seg, err := storage.OpenLogFile(l.segPath)
	if err != nil {
		return nil, nil, err
	}
	l.seg = seg
	l.durableOff = seg.Size()
	if err := storage.SyncDir(dir); err != nil {
		seg.Close()
		return nil, nil, err
	}

	l.wg.Add(1)
	go l.syncLoop()
	return l, records, nil
}

// Append encodes r, stamps the next LSN, and writes it to the active
// segment. The record is NOT durable yet: the returned LSN must be
// passed to WaitDurable before the mutation is acknowledged. A failed
// append leaves the log exactly as it was (a torn prefix is truncated
// away); if even that repair fails the log is poisoned and every later
// call fails with the first error.
func (l *Log) Append(r Record) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed || l.closing {
		return 0, ErrClosed
	}
	if l.err != nil {
		return 0, l.err
	}
	r.LSN = l.next
	buf, err := appendRecord(nil, r)
	if err != nil {
		return 0, err
	}
	start := l.seg.Size()
	if _, err := l.seg.Append(buf); err != nil {
		if terr := l.seg.Truncate(start); terr != nil {
			// The torn record cannot be removed: no further append may
			// land after it, or replay would see garbage mid-log.
			l.fail(fmt.Errorf("wal: repairing torn append: %w (after %w)", terr, err))
		}
		return 0, err
	}
	l.written = r.LSN
	l.next = r.LSN + 1
	l.appends.Add(1)
	l.work.Signal()
	return r.LSN, nil
}

// WaitDurable blocks until the log has fsynced lsn (returning nil), the
// log is poisoned (returning the sticky error), or the log is closed
// with lsn still pending (returning ErrClosed).
func (l *Log) WaitDurable(lsn uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.durable < lsn && l.err == nil && !l.closed {
		l.dur.Wait()
	}
	if l.durable >= lsn {
		return nil
	}
	if l.err != nil {
		return l.err
	}
	return ErrClosed
}

// fail poisons the log (first error wins) and drops the unacknowledged
// tail of the active segment, so a reopen recovers exactly the records
// that were acknowledged durable. Callers hold l.mu.
func (l *Log) fail(err error) {
	if l.err == nil {
		l.err = fmt.Errorf("%w: %w", ErrClosed, err)
		// Best effort: if the truncate fails too, replay's torn-tail
		// repair handles whatever half-synced bytes survive.
		_ = l.seg.Truncate(l.durableOff)
	}
	l.dur.Broadcast()
	l.work.Broadcast()
}

// syncLoop is the group-commit goroutine: it gathers the records
// appended since the last fsync into one batch, fsyncs once (outside
// the log mutex), advances the durable LSN, and wakes the committers.
func (l *Log) syncLoop() {
	defer l.wg.Done()
	for {
		l.mu.Lock()
		for l.err == nil && !l.closing && l.written == l.durable {
			l.work.Wait()
		}
		if l.err != nil || (l.closing && l.written == l.durable) {
			l.mu.Unlock()
			return
		}
		if !l.closing && l.written-l.durable < uint64(l.opts.syncEvery) {
			// Gathering window: let concurrent committers join the batch.
			l.mu.Unlock()
			time.Sleep(l.opts.syncInterval)
			l.mu.Lock()
		}
		target := l.written
		targetOff := l.seg.Size()
		seg := l.seg
		l.mu.Unlock()

		err := seg.Sync()

		l.mu.Lock()
		if err != nil {
			l.fail(err)
			l.mu.Unlock()
			return
		}
		l.fsyncs.Add(1)
		if target > l.durable {
			l.syncedRecs.Add(int64(target - l.durable))
			l.durable = target
			l.durableOff = targetOff
			l.durableLSN.Store(int64(target))
		}
		if l.durable == l.written && l.seg.Size() >= l.opts.segmentBytes {
			// Quiescent and oversized: rotate so compaction has a
			// boundary to cut at. Pending records never span a rotation.
			if rerr := l.rotateLocked(); rerr != nil {
				l.fail(rerr)
				l.mu.Unlock()
				return
			}
		}
		l.dur.Broadcast()
		l.mu.Unlock()
	}
}

// rotateLocked closes the active segment and opens a fresh one starting
// at the next LSN. Callers hold l.mu and have ensured durable==written
// (a pending record must never be split from its fsync by a rotation).
// The directory is fsynced so the new segment's name is durable before
// any record in it can be acknowledged.
func (l *Log) rotateLocked() error {
	path := filepath.Join(l.dir, segName(l.next))
	nf, err := storage.OpenLogFile(path)
	if err != nil {
		return fmt.Errorf("wal: rotating to %s: %w", filepath.Base(path), err)
	}
	if l.inj != nil {
		nf.SetInjector(l.inj)
	}
	if err := storage.SyncDir(l.dir); err != nil {
		nf.Close()
		return err
	}
	old := l.seg
	l.segs = append(l.segs, closedSeg{first: l.segFirst, path: l.segPath})
	l.seg, l.segFirst, l.segPath = nf, l.next, path
	l.durableOff = 0
	l.rotations.Add(1)
	if err := old.Close(); err != nil {
		return fmt.Errorf("wal: closing rotated segment: %w", err)
	}
	return nil
}

// Checkpoint makes the log reflect a snapshot that durably includes
// every record up to and including upto: it drains pending fsyncs,
// rotates the active segment if it holds checkpointed records, and
// deletes rotated segments the snapshot has made redundant. Replay
// stays idempotent throughout — a crash between the snapshot commit
// and the compaction only means records <= upto are replayed onto a
// state that already contains them, which the caller skips by LSN.
func (l *Log) Checkpoint(upto uint64) error {
	if err := fireCrashHook("checkpoint-start"); err != nil {
		return err
	}
	l.mu.Lock()
	for l.err == nil && !l.closing && l.durable < l.written {
		l.work.Signal()
		l.dur.Wait()
	}
	if l.err != nil {
		err := l.err
		l.mu.Unlock()
		return err
	}
	if l.closing || l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	if l.segFirst <= upto && l.seg.Size() > 0 {
		if err := fireCrashHook("rotate-create"); err != nil {
			l.mu.Unlock()
			return err
		}
		if err := l.rotateLocked(); err != nil {
			l.fail(err)
			l.mu.Unlock()
			return err
		}
		if err := fireCrashHook("rotate-swap"); err != nil {
			l.mu.Unlock()
			return err
		}
	}
	// A rotated segment covers the LSNs before its successor's first;
	// it is redundant once that whole range is <= upto.
	var drop []closedSeg
	for len(l.segs) > 0 {
		nextFirst := l.segFirst
		if len(l.segs) > 1 {
			nextFirst = l.segs[1].first
		}
		if nextFirst > upto+1 {
			break
		}
		drop = append(drop, l.segs[0])
		l.segs = l.segs[1:]
	}
	l.mu.Unlock()

	for _, s := range drop {
		if err := fireCrashHook("compact-unlink"); err != nil {
			return err
		}
		if err := os.Remove(s.path); err != nil {
			return fmt.Errorf("wal: compacting %s: %w", filepath.Base(s.path), err)
		}
		l.compactions.Add(1)
	}
	if len(drop) > 0 {
		return storage.SyncDir(l.dir)
	}
	return nil
}

// SetInjector installs (or clears, with nil) a fault injector on the
// active segment and every segment rotation creates from now on.
func (l *Log) SetInjector(in storage.Injector) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.inj = in
	l.seg.SetInjector(in)
}

// DurableLSN reports the last LSN the log has fsynced.
func (l *Log) DurableLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.durable
}

// NextLSN reports the LSN the next append will be stamped with.
func (l *Log) NextLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next
}

// Segments reports how many segment files the log currently spans
// (rotated plus active).
func (l *Log) Segments() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.segs) + 1
}

// Close drains pending records through one final fsync, stops the
// group-commit goroutine, and closes the active segment. A poisoned
// log returns its sticky error. Close is idempotent.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	already := l.closing
	l.closing = true
	l.work.Broadcast()
	l.mu.Unlock()
	l.wg.Wait()

	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed || already {
		return nil
	}
	l.closed = true
	err := l.err
	if cerr := l.seg.Close(); err == nil && cerr != nil {
		err = cerr
	}
	l.dur.Broadcast()
	return err
}
