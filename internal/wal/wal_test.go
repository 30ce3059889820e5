package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"dsks/internal/fault"
	"dsks/internal/metrics"
)

func mustOpen(t *testing.T, dir string, from uint64, opts Options) (*Log, []Record) {
	t.Helper()
	l, recs, err := Open(dir, from, opts)
	if err != nil {
		t.Fatalf("Open(%s, %d): %v", dir, from, err)
	}
	return l, recs
}

func insertRec(id int32) Record {
	return Record{Type: RecInsert, ID: id, Edge: id * 2, Offset: float64(id) + 0.5, Terms: []int32{id, id + 1}}
}

// appendWait appends r and blocks until it is durable.
func appendWait(t *testing.T, l *Log, r Record) uint64 {
	t.Helper()
	lsn, err := l.Append(r)
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := l.WaitDurable(lsn); err != nil {
		t.Fatalf("WaitDurable(%d): %v", lsn, err)
	}
	return lsn
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, recs := mustOpen(t, dir, 0, Options{})
	if len(recs) != 0 {
		t.Fatalf("fresh log replayed %d records", len(recs))
	}
	want := []Record{insertRec(0), {Type: RecRemove, ID: 0}, insertRec(7)}
	for i := range want {
		lsn := appendWait(t, l, want[i])
		if lsn != uint64(i+1) {
			t.Fatalf("record %d got LSN %d", i, lsn)
		}
		want[i].LSN = lsn
	}
	if got := l.DurableLSN(); got != 3 {
		t.Fatalf("DurableLSN = %d, want 3", got)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, recs := mustOpen(t, dir, 0, Options{})
	defer l2.Close()
	if len(recs) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(recs), len(want))
	}
	for i, r := range recs {
		w := want[i]
		if r.LSN != w.LSN || r.Type != w.Type || r.ID != w.ID || r.Edge != w.Edge || r.Offset != w.Offset {
			t.Fatalf("record %d = %+v, want %+v", i, r, w)
		}
		if len(r.Terms) != len(w.Terms) {
			t.Fatalf("record %d terms %v, want %v", i, r.Terms, w.Terms)
		}
		for j := range r.Terms {
			if r.Terms[j] != w.Terms[j] {
				t.Fatalf("record %d terms %v, want %v", i, r.Terms, w.Terms)
			}
		}
	}
	if got := l2.NextLSN(); got != 4 {
		t.Fatalf("NextLSN after replay = %d, want 4", got)
	}
}

func TestReplaySkipsSnapshotCoveredRecords(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, 0, Options{})
	for i := int32(0); i < 5; i++ {
		appendWait(t, l, insertRec(i))
	}
	l.Close()

	// A snapshot that already contains LSNs 1..3 replays only 4 and 5.
	l2, recs := mustOpen(t, dir, 3, Options{})
	defer l2.Close()
	if len(recs) != 2 || recs[0].LSN != 4 || recs[1].LSN != 5 {
		t.Fatalf("replay past LSN 3 = %+v, want LSNs 4,5", recs)
	}
	// A snapshot ahead of the whole log replays nothing and appends after it.
	l2.Close()
	l3, recs := mustOpen(t, dir, 9, Options{})
	defer l3.Close()
	if len(recs) != 0 {
		t.Fatalf("replay past LSN 9 = %+v, want none", recs)
	}
	if lsn, err := l3.Append(insertRec(9)); err != nil || lsn != 10 {
		t.Fatalf("Append after future snapshot = (%d, %v), want (10, nil)", lsn, err)
	}
}

func TestGroupCommitBatchesConcurrentAppends(t *testing.T) {
	reg := metrics.NewRegistry()
	l, _ := mustOpen(t, t.TempDir(), 0, Options{
		syncEvery:    32,
		syncInterval: 5 * time.Millisecond,
		Metrics:      reg,
	})
	defer l.Close()

	const writers, per = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				lsn, err := l.Append(insertRec(int32(w*per + i)))
				if err != nil {
					t.Errorf("Append: %v", err)
					return
				}
				if err := l.WaitDurable(lsn); err != nil {
					t.Errorf("WaitDurable: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	snap := reg.Snapshot()
	appends := snap.Counters["wal_appends_total"]
	fsyncs := snap.Counters["wal_fsyncs_total"]
	synced := snap.Counters["wal_synced_records_total"]
	if appends != writers*per {
		t.Fatalf("wal_appends_total = %d, want %d", appends, writers*per)
	}
	if synced != appends {
		t.Fatalf("wal_synced_records_total = %d, want %d", synced, appends)
	}
	if fsyncs == 0 || fsyncs >= synced {
		t.Fatalf("group commit degenerated: %d fsyncs for %d records", fsyncs, synced)
	}
	t.Logf("group commit: %d records over %d fsyncs (%.1f per batch)",
		synced, fsyncs, float64(synced)/float64(fsyncs))
}

// TestStrictModeSyncsEveryCommit: the log has no strict mode because it
// needs none. A committer waits for the fsync that covers its record, so
// a lone sequential committer pays one fsync per commit at the default
// window.
func TestStrictModeSyncsEveryCommit(t *testing.T) {
	reg := metrics.NewRegistry()
	l, _ := mustOpen(t, t.TempDir(), 0, Options{Metrics: reg})
	defer l.Close()
	for i := int32(0); i < 5; i++ {
		appendWait(t, l, insertRec(i))
	}
	snap := reg.Snapshot()
	if fsyncs := snap.Counters["wal_fsyncs_total"]; fsyncs != 5 {
		t.Fatalf("%d fsyncs for 5 sequential commits, want 5", fsyncs)
	}
}

func TestTornTailTruncatedOnReopen(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, 0, Options{})
	for i := int32(0); i < 3; i++ {
		appendWait(t, l, insertRec(i))
	}
	segPath := l.segPath
	l.Close()

	// Simulate a crash mid-append: a record whose bytes stop at EOF.
	full, err := appendRecord(nil, Record{LSN: 4, Type: RecRemove, ID: 1})
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(segPath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(full[:len(full)-3]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	reg := metrics.NewRegistry()
	l2, recs := mustOpen(t, dir, 0, Options{Metrics: reg})
	defer l2.Close()
	if len(recs) != 3 {
		t.Fatalf("replayed %d records after torn tail, want 3", len(recs))
	}
	if tb := reg.Snapshot().Counters["wal_truncated_bytes_total"]; tb != int64(len(full)-3) {
		t.Fatalf("wal_truncated_bytes_total = %d, want %d", tb, len(full)-3)
	}
	// The log continues where the acknowledged records ended.
	if lsn, err := l2.Append(insertRec(9)); err != nil || lsn != 4 {
		t.Fatalf("Append after torn-tail repair = (%d, %v), want (4, nil)", lsn, err)
	}
}

func TestZeroTailTruncatedOnReopen(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, 0, Options{})
	appendWait(t, l, insertRec(1))
	segPath := l.segPath
	l.Close()

	f, err := os.OpenFile(segPath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l2, recs := mustOpen(t, dir, 0, Options{})
	defer l2.Close()
	if len(recs) != 1 {
		t.Fatalf("replayed %d records after zeroed tail, want 1", len(recs))
	}
}

func TestFinalRecordCRCMismatchTruncated(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, 0, Options{})
	for i := int32(0); i < 3; i++ {
		appendWait(t, l, insertRec(i))
	}
	segPath := l.segPath
	size := l.seg.Size()
	l.Close()

	// Flip a bit in the LAST record's payload: a partially flushed page
	// cache can leave exactly this — framing intact, content wrong. It
	// runs to end-of-file, so it is a torn tail, not corruption.
	flipByteAt(t, segPath, size-2)
	l2, recs := mustOpen(t, dir, 0, Options{})
	defer l2.Close()
	if len(recs) != 2 {
		t.Fatalf("replayed %d records after final-record bit flip, want 2", len(recs))
	}
}

func TestMidLogCRCMismatchIsCorrupt(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, 0, Options{})
	for i := int32(0); i < 3; i++ {
		appendWait(t, l, insertRec(i))
	}
	segPath := l.segPath
	l.Close()

	// Flip a bit in the FIRST record: valid records follow it, so this
	// cannot be a torn append and must fail the open.
	flipByteAt(t, segPath, 12)
	if _, _, err := Open(dir, 0, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open over mid-log corruption = %v, want ErrCorrupt", err)
	}
}

func TestLSNGapAfterSnapshotIsCorrupt(t *testing.T) {
	dir := t.TempDir()
	// Hand-craft a segment whose records start at LSN 5: opening it over
	// a base state that only covers up to LSN 2 leaves 3 and 4 missing.
	var buf []byte
	var err error
	if buf, err = appendRecord(buf, Record{LSN: 5, Type: RecRemove, ID: 1}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, segName(5)), buf, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, 2, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open over an LSN gap = %v, want ErrCorrupt", err)
	}
	// The same log is fine for a base state that covers up to LSN 4.
	l, recs := mustOpen(t, dir, 4, Options{})
	defer l.Close()
	if len(recs) != 1 || recs[0].LSN != 5 {
		t.Fatalf("replay = %+v, want the single LSN-5 record", recs)
	}
}

func TestSyncFaultPoisonsLogAndDropsUnacked(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, 0, Options{})
	acked := appendWait(t, l, insertRec(1))

	inj, err := fault.New(fault.Config{Op: fault.OpSync, Probability: 1})
	if err != nil {
		t.Fatal(err)
	}
	l.SetInjector(inj)
	lsn, err := l.Append(insertRec(2))
	if err != nil {
		t.Fatalf("Append (the write itself is unfaulted): %v", err)
	}
	if err := l.WaitDurable(lsn); err == nil {
		t.Fatal("WaitDurable under a sync fault returned nil")
	} else if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("WaitDurable error %v does not wrap fault.ErrInjected", err)
	}
	// Poisoned: even a fresh append is refused.
	if _, err := l.Append(insertRec(3)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Append on poisoned log = %v, want ErrClosed", err)
	}
	if err := l.Close(); err == nil {
		t.Fatal("Close of poisoned log returned nil")
	}

	// Reopen recovers exactly the acknowledged record: the unsynced
	// tail was truncated by the poison path.
	l2, recs := mustOpen(t, dir, 0, Options{})
	defer l2.Close()
	if len(recs) != 1 || recs[0].LSN != acked {
		t.Fatalf("replay after poison = %+v, want only acked LSN %d", recs, acked)
	}
}

func TestCheckpointRotatesAndCompacts(t *testing.T) {
	dir := t.TempDir()
	reg := metrics.NewRegistry()
	l, _ := mustOpen(t, dir, 0, Options{Metrics: reg})
	var last uint64
	for i := int32(0); i < 4; i++ {
		last = appendWait(t, l, insertRec(i))
	}
	if err := l.Checkpoint(last); err != nil {
		t.Fatal(err)
	}
	if got := l.Segments(); got != 1 {
		t.Fatalf("Segments after full checkpoint = %d, want 1", got)
	}
	names, err := segNames(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != segName(last+1) {
		t.Fatalf("segment files after checkpoint = %v, want [%s]", names, segName(last+1))
	}
	snap := reg.Snapshot()
	if snap.Counters["wal_rotations_total"] == 0 || snap.Counters["wal_compacted_segments_total"] == 0 {
		t.Fatalf("checkpoint counters = %v, want rotation and compaction", snap.Counters)
	}

	// Records appended after the checkpoint land in the new segment and
	// survive a reopen from the checkpoint LSN.
	appendWait(t, l, insertRec(40))
	l.Close()
	l2, recs := mustOpen(t, dir, last, Options{})
	defer l2.Close()
	if len(recs) != 1 || recs[0].LSN != last+1 {
		t.Fatalf("replay after checkpoint = %+v, want LSN %d", recs, last+1)
	}
}

func TestCheckpointKeepsUncoveredSegments(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, 0, Options{})
	appendWait(t, l, insertRec(1))
	appendWait(t, l, insertRec(2))
	// Checkpoint at LSN 1: the active segment still holds LSN 2, so it
	// is rotated but NOT deleted.
	if err := l.Checkpoint(1); err != nil {
		t.Fatal(err)
	}
	if got := l.Segments(); got != 2 {
		t.Fatalf("Segments after partial checkpoint = %d, want 2", got)
	}
	l.Close()
	l2, recs := mustOpen(t, dir, 1, Options{})
	defer l2.Close()
	if len(recs) != 1 || recs[0].LSN != 2 {
		t.Fatalf("replay after partial checkpoint = %+v, want LSN 2", recs)
	}
}

func TestSegmentRotationAtSizeThreshold(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, 0, Options{segmentBytes: 64})
	for i := int32(0); i < 6; i++ {
		appendWait(t, l, insertRec(i))
	}
	if got := l.Segments(); got < 2 {
		t.Fatalf("Segments with a 64-byte threshold = %d, want several", got)
	}
	l.Close()
	l2, recs := mustOpen(t, dir, 0, Options{})
	defer l2.Close()
	if len(recs) != 6 {
		t.Fatalf("replayed %d records across rotated segments, want 6", len(recs))
	}
}

func TestCloseDrainsPendingThenRefuses(t *testing.T) {
	l, _ := mustOpen(t, t.TempDir(), 0, Options{syncInterval: 50 * time.Millisecond})
	lsn, err := l.Append(insertRec(1))
	if err != nil {
		t.Fatal(err)
	}
	// Close must drain the pending record through a final fsync.
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got := l.DurableLSN(); got != lsn {
		t.Fatalf("DurableLSN after Close = %d, want %d (drained)", got, lsn)
	}
	if _, err := l.Append(insertRec(2)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Append after Close = %v, want ErrClosed", err)
	}
	if err := l.WaitDurable(lsn + 1); !errors.Is(err, ErrClosed) {
		t.Fatalf("WaitDurable past Close = %v, want ErrClosed", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second Close = %v, want nil", err)
	}
}

func TestCheckpointCrashHooks(t *testing.T) {
	for _, point := range CrashPoints {
		t.Run(point, func(t *testing.T) {
			dir := t.TempDir()
			l, _ := mustOpen(t, dir, 0, Options{})
			var last uint64
			for i := int32(0); i < 3; i++ {
				last = appendWait(t, l, insertRec(i))
			}
			CrashHook = func(p string) error {
				if p == point {
					return fmt.Errorf("simulated crash at %s", p)
				}
				return nil
			}
			defer func() { CrashHook = nil }()
			if err := l.Checkpoint(last); err == nil {
				t.Fatalf("Checkpoint with a crash at %s returned nil", point)
			}
			CrashHook = nil
			l.Close()

			// Whatever intermediate state the crash left, a reopen from
			// the checkpoint's snapshot recovers (replay is idempotent).
			l2, recs := mustOpen(t, dir, last, Options{})
			defer l2.Close()
			if len(recs) != 0 {
				t.Fatalf("crash at %s left %d records past the snapshot", point, len(recs))
			}
			if lsn, err := l2.Append(insertRec(9)); err != nil || lsn != last+1 {
				t.Fatalf("Append after crash at %s = (%d, %v), want (%d, nil)", point, lsn, err, last+1)
			}
		})
	}
}

func flipByteAt(t *testing.T, path string, off int64) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[off] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}
