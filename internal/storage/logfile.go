package storage

import (
	"fmt"
	"io"
	"os"
	"sync"
)

// LogFile is an append-only byte log backed by a real file, the medium
// under the write-ahead log (internal/wal). It carries the same Injector
// seam as the page stores, so appends and fsyncs are fault-injectable
// like page I/O: the injector sees the page-aligned block number of the
// append offset (offset / PageSize), letting page-targeted specs address
// regions of the log, and fsyncs report under the "sync" operation.
//
// Append and Truncate serialize on an internal mutex; Sync snapshots the
// file handle under the mutex but performs the fsync outside it, so
// concurrent appends are never stalled behind a flush (the group-commit
// property the WAL's batching depends on).
type LogFile struct {
	mu   sync.Mutex
	f    *os.File
	size int64
	inj  Injector

	appends int64
	syncs   int64
	torn    int64
}

// OpenLogFile opens (creating if needed, never truncating) the log file
// at path and positions appends at its current end.
func OpenLogFile(path string) (*LogFile, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	return &LogFile{f: f, size: st.Size()}, nil
}

// SetInjector installs (or clears, with nil) the fault injector
// intercepting the log's appends and fsyncs.
func (l *LogFile) SetInjector(in Injector) {
	l.mu.Lock()
	l.inj = in
	l.mu.Unlock()
}

// Size returns the log's current size in bytes, including any torn
// prefix a failed append left behind (callers repair with Truncate).
func (l *LogFile) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

// Stats reports the operation counters: completed appends, fsyncs, and
// torn (partially applied) appends.
func (l *LogFile) Stats() (appends, syncs, torn int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appends, l.syncs, l.torn
}

// Append writes p at the end of the log and returns the offset it was
// written at. An injected failure aborts the append before any byte is
// written; an injected torn write applies only a prefix, extends the
// size by that prefix, and fails with an error matching
// io.ErrShortWrite — the caller must Truncate back to the returned
// offset before appending again, or the log carries a torn record.
func (l *LogFile) Append(p []byte) (int64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	off := l.size
	limit := len(p)
	if l.inj != nil {
		block := uint32(off / PageSize)
		if err := l.inj.BeforeOp("write", block); err != nil {
			return off, err
		}
		limit = l.inj.WriteLimit(block, len(p))
	}
	n, err := l.f.WriteAt(p[:limit], off)
	l.size += int64(n)
	if err != nil {
		return off, fmt.Errorf("storage: log append at %d: %w", off, err)
	}
	if limit < len(p) {
		l.torn++
		return off, fmt.Errorf("storage: torn log append at %d (%d of %d bytes): %w",
			off, limit, len(p), io.ErrShortWrite)
	}
	l.appends++
	return off, nil
}

// Sync makes every appended byte durable. The fsync itself runs outside
// the log's mutex, so appends proceed concurrently; an injected "sync"
// fault models a medium that accepts writes but cannot flush them.
func (l *LogFile) Sync() error {
	l.mu.Lock()
	f, inj, size := l.f, l.inj, l.size
	l.syncs++
	l.mu.Unlock()
	if inj != nil {
		if err := inj.BeforeOp("sync", uint32(size/PageSize)); err != nil {
			return err
		}
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("storage: log fsync: %w", err)
	}
	return nil
}

// Truncate cuts the log back to size bytes — the repair for a torn
// append, and the poison-path cleanup that drops an unacknowledged tail.
func (l *LogFile) Truncate(size int64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if size > l.size {
		return fmt.Errorf("storage: log truncate to %d beyond size %d", size, l.size)
	}
	if err := l.f.Truncate(size); err != nil {
		return fmt.Errorf("storage: log truncate to %d: %w", size, err)
	}
	l.size = size
	return nil
}

// Close releases the underlying file.
func (l *LogFile) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.f.Close()
}

// SyncDir fsyncs a directory so the entries created, renamed or removed in
// it are durable.
func SyncDir(path string) error {
	d, err := os.Open(path)
	if err != nil {
		return err
	}
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		return fmt.Errorf("storage: syncing directory %s: %w", path, serr)
	}
	return cerr
}
