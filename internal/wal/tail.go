package wal

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// ErrTailGap marks a tailer that can no longer follow the log: the
// segment holding its next record was compacted away (Checkpoint runs
// on the primary's schedule, not the tailer's). The only recovery is to
// re-seed the follower from a snapshot past the gap.
var ErrTailGap = errors.New("wal: tail position compacted away")

// Tailer follows a write-ahead-log directory record by record, across
// segment rotations, without disturbing the writer. It is the shipping
// side of replication: a read replica opens a Tailer on its primary's
// log and applies each record it yields.
//
// A Tailer is bounded by its log's durable LSN: it never yields a record
// the primary has not fsynced, because unsynced bytes can legally vanish
// in a crash — applying them would diverge the replica from every state
// the primary can recover to.
//
// Next distinguishes three conditions: "nothing more yet" (the tail has
// caught up with the durable bound — poll again), a compaction gap
// (ErrTailGap), and everything else (damage anywhere at or below the
// bound, a broken LSN chain) which is corruption matching ErrCorrupt.
//
// A Tailer is not safe for concurrent use; each follower owns one.
type Tailer struct {
	dir  string
	next uint64 // next LSN to yield

	// bound returns the highest LSN safe to yield: the log's durable LSN.
	bound func() uint64

	// Current segment.
	f     *os.File
	first uint64 // the segment's declared first LSN
	name  string
	off   int64 // file offset of the next unparsed byte

	// Read-ahead window: win holds file bytes starting at winOff.
	win    []byte
	winOff int64

	closed bool
}

// TailFrom returns a Tailer over the live log that yields every durable
// record past fromLSN, in order. The tailer holds no lock on the log;
// it reads the segment files directly and asks only for the durable
// bound, so a wedged follower can never stall the writer.
func (l *Log) TailFrom(fromLSN uint64) *Tailer {
	return &Tailer{dir: l.dir, next: fromLSN + 1, bound: l.DurableLSN}
}

// NextLSN returns the LSN the next successful Next will yield.
func (t *Tailer) NextLSN() uint64 { return t.next }

// Next returns the next record past the tail position. ok reports
// whether a record was yielded; (ok=false, err=nil) means the tailer
// has consumed everything currently safe to read — poll again after the
// writer makes progress. Errors are terminal: ErrTailGap if compaction
// overtook the tail position, ErrCorrupt-matching otherwise.
func (t *Tailer) Next() (r Record, ok bool, err error) {
	if t.closed {
		return Record{}, false, fmt.Errorf("wal: tailer: %w", ErrClosed)
	}
	for {
		// Snapshot the durable bound BEFORE reading file bytes: every
		// record at or below it was fully written (and fsynced) before
		// the bound advanced, so a parse failure below the bound is real
		// corruption, never a benign race with an in-flight append.
		if limit := t.bound(); t.next > limit {
			return Record{}, false, nil
		}
		if t.f == nil {
			ready, err := t.seek()
			if err != nil || !ready {
				return Record{}, false, err
			}
		}
		size, err := t.size()
		if err != nil {
			return Record{}, false, err
		}
		if t.off >= size {
			rotated, err := t.rotate()
			if err != nil || !rotated {
				return Record{}, false, err
			}
			continue
		}
		rest, err := t.window(size)
		if err != nil {
			return Record{}, false, err
		}
		keep, rec, perr := parseNext(rest)
		if perr != nil {
			// The record at t.next is durable, so even a torn-looking one
			// at the end of the file is damage.
			return Record{}, false, fmt.Errorf("%w: %s at offset %d: durable LSN %d unreadable: %v",
				ErrCorrupt, t.name, t.off, t.next, perr)
		}
		if rec.LSN < t.next {
			// The first segment can begin before the tail position.
			t.off += int64(keep)
			continue
		}
		if rec.LSN != t.next {
			return Record{}, false, fmt.Errorf("%w: %s has LSN %d where %d was expected",
				ErrCorrupt, t.name, rec.LSN, t.next)
		}
		t.off += int64(keep)
		t.next = rec.LSN + 1
		return rec, true, nil
	}
}

// Close releases the tailer's file handle. Further Next calls fail.
func (t *Tailer) Close() error {
	t.closed = true
	t.win = nil
	if t.f != nil {
		f := t.f
		t.f = nil
		return f.Close()
	}
	return nil
}

// seek opens the segment that contains t.next: the one with the largest
// declared first LSN not past it. No segments at all reads as "nothing
// yet" (the writer may not have created the log); segments that all
// start past t.next mean compaction already dropped the tail position.
func (t *Tailer) seek() (ready bool, err error) {
	names, err := segNames(t.dir)
	if err != nil {
		if os.IsNotExist(err) {
			return false, nil
		}
		return false, err
	}
	if len(names) == 0 {
		return false, nil
	}
	pick, pickFirst := "", uint64(0)
	for _, name := range names {
		first, err := parseSegName(name)
		if err != nil {
			return false, err
		}
		if first <= t.next && (pick == "" || first > pickFirst) {
			pick, pickFirst = name, first
		}
	}
	if pick == "" {
		return false, fmt.Errorf("%w: oldest segment starts past LSN %d", ErrTailGap, t.next)
	}
	return true, t.open(pick, pickFirst)
}

// rotate advances to the successor segment once the current one is
// fully consumed. The successor must begin exactly at t.next — rotation
// happens at a quiescent point, so any other first LSN means the chain
// is broken. No successor yet reads as "nothing more".
func (t *Tailer) rotate() (rotated bool, err error) {
	names, err := segNames(t.dir)
	if err != nil {
		return false, err
	}
	pick, pickFirst := "", uint64(0)
	for _, name := range names {
		first, err := parseSegName(name)
		if err != nil {
			return false, err
		}
		if first > t.first && (pick == "" || first < pickFirst) {
			pick, pickFirst = name, first
		}
	}
	if pick == "" {
		return false, nil
	}
	if pickFirst != t.next {
		return false, fmt.Errorf("%w: %s begins at LSN %d where %d was expected after %s",
			ErrCorrupt, pick, pickFirst, t.next, t.name)
	}
	return true, t.open(pick, pickFirst)
}

// open switches the tailer to the named segment.
func (t *Tailer) open(name string, first uint64) error {
	f, err := os.Open(filepath.Join(t.dir, name))
	if err != nil {
		return err
	}
	if t.f != nil {
		t.f.Close()
	}
	t.f, t.first, t.name, t.off = f, first, name, 0
	t.win, t.winOff = nil, 0
	return nil
}

// size returns the current segment's length. The writer only ever
// appends (crash-repair truncation happens below the durable bound a
// live tailer respects), so a fresh stat is always safe to parse up to.
func (t *Tailer) size() (int64, error) {
	st, err := t.f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// window returns the file bytes at t.off, reading ahead in chunks big
// enough to hold any legal record so backlog replay does one pread per
// window, not per record.
func (t *Tailer) window(size int64) ([]byte, error) {
	const windowBytes = recHeader + maxPayload
	end := t.winOff + int64(len(t.win))
	have := end - t.off
	// Reuse the window only if it covers t.off and either runs to the
	// file's end or still holds a full maximal record.
	if t.off >= t.winOff && have > 0 && (end >= size || have >= windowBytes) {
		return t.win[t.off-t.winOff:], nil
	}
	n := min(size-t.off, windowBytes)
	buf := make([]byte, n)
	if got, err := t.f.ReadAt(buf, t.off); err != nil && !(errors.Is(err, io.EOF) && got == len(buf)) {
		return nil, fmt.Errorf("wal: tailing %s: %w", t.name, err)
	}
	t.win, t.winOff = buf, t.off
	return buf, nil
}
