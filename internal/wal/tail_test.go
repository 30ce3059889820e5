package wal

import (
	"errors"
	"os"
	"testing"
)

// drain reads every record the tailer currently yields.
func drain(t *testing.T, tl *Tailer) []Record {
	t.Helper()
	var out []Record
	for {
		rec, ok, err := tl.Next()
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if !ok {
			return out
		}
		out = append(out, rec)
	}
}

func TestTailFollowsLiveLog(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, 0, Options{})
	defer l.Close()
	for i := int32(0); i < 3; i++ {
		appendWait(t, l, insertRec(i))
	}

	tl := l.TailFrom(0)
	defer tl.Close()
	recs := drain(t, tl)
	if len(recs) != 3 {
		t.Fatalf("tailed %d records, want 3", len(recs))
	}
	for i, r := range recs {
		if r.LSN != uint64(i+1) || r.Type != RecInsert || r.ID != int32(i) {
			t.Fatalf("record %d = %+v, want insert id %d at LSN %d", i, r, i, i+1)
		}
	}
	// Caught up: not-ready, then the next append shows up on re-poll.
	if _, ok, err := tl.Next(); ok || err != nil {
		t.Fatalf("Next at the tail = (ok=%v, %v), want not-ready", ok, err)
	}
	appendWait(t, l, insertRec(9))
	recs = drain(t, tl)
	if len(recs) != 1 || recs[0].LSN != 4 || recs[0].ID != 9 {
		t.Fatalf("tail after append = %+v, want the LSN-4 insert", recs)
	}
}

func TestTailFromMidpointSkipsCoveredRecords(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, 0, Options{})
	defer l.Close()
	for i := int32(0); i < 5; i++ {
		appendWait(t, l, insertRec(i))
	}
	tl := l.TailFrom(3)
	defer tl.Close()
	recs := drain(t, tl)
	if len(recs) != 2 || recs[0].LSN != 4 || recs[1].LSN != 5 {
		t.Fatalf("tail from LSN 3 = %+v, want LSNs 4,5", recs)
	}
}

func TestTailCrossesSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, 0, Options{segmentBytes: 64})
	defer l.Close()
	tl := l.TailFrom(0)
	defer tl.Close()

	// Interleave appends and polls so the tailer rotates live, not just
	// over a finished backlog.
	var got []Record
	for i := int32(0); i < 6; i++ {
		appendWait(t, l, insertRec(i))
		got = append(got, drain(t, tl)...)
	}
	if l.Segments() < 2 {
		t.Fatalf("Segments = %d, want several (rotation did not happen)", l.Segments())
	}
	if len(got) != 6 {
		t.Fatalf("tailed %d records across rotations, want 6", len(got))
	}
	for i, r := range got {
		if r.LSN != uint64(i+1) {
			t.Fatalf("record %d has LSN %d, want %d", i, r.LSN, i+1)
		}
	}
}

func TestTailHonorsDurableBound(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, 0, Options{})
	defer l.Close()
	for i := int32(0); i < 3; i++ {
		appendWait(t, l, insertRec(i))
	}

	// Pin the bound below the log's real durable LSN: the records are on
	// disk, but the tailer must not yield past what the bound admits —
	// exactly the window where an in-flight append's bytes may exist but
	// could still vanish in a crash.
	var bound uint64
	tl := &Tailer{dir: dir, next: 1, bound: func() uint64 { return bound }}
	defer tl.Close()
	if _, ok, err := tl.Next(); ok || err != nil {
		t.Fatalf("Next with bound 0 = (ok=%v, %v), want not-ready", ok, err)
	}
	bound = 2
	if recs := drain(t, tl); len(recs) != 2 || recs[1].LSN != 2 {
		t.Fatalf("tail with bound 2 = %+v, want LSNs 1,2", recs)
	}
	bound = 3
	if recs := drain(t, tl); len(recs) != 1 || recs[0].LSN != 3 {
		t.Fatalf("tail with bound 3 = %+v, want LSN 3", recs)
	}
}

func TestTailerMidLogCorruptionIsTerminal(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, 0, Options{})
	defer l.Close()
	for i := int32(0); i < 3; i++ {
		appendWait(t, l, insertRec(i))
	}

	// Flip a bit in the FIRST record behind the live writer's back: valid
	// durable records follow it, so this is corruption, never a torn
	// append.
	flipByteAt(t, l.segPath, 12)
	tl := l.TailFrom(0)
	defer tl.Close()
	if _, _, err := tl.Next(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Next over mid-log corruption = %v, want ErrCorrupt", err)
	}
}

func TestTailerDurableButUnreadableIsCorrupt(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, 0, Options{})
	defer l.Close()
	appendWait(t, l, insertRec(1))
	appendWait(t, l, insertRec(2))

	// Chop the durable tail behind the live writer's back: the log still
	// reports DurableLSN 2, so the missing bytes cannot be an in-flight
	// append — the bounded tailer must call it corruption.
	st, err := os.Stat(l.segPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(l.segPath, st.Size()-3); err != nil {
		t.Fatal(err)
	}
	tl := l.TailFrom(1)
	defer tl.Close()
	if _, _, err := tl.Next(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Next over a truncated durable record = %v, want ErrCorrupt", err)
	}
}

func TestTailerCompactionGap(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, 0, Options{})
	defer l.Close()
	var last uint64
	for i := int32(0); i < 4; i++ {
		last = appendWait(t, l, insertRec(i))
	}
	if err := l.Checkpoint(last); err != nil {
		t.Fatal(err)
	}

	// The checkpoint dropped every segment holding LSNs 1..4: a tailer
	// positioned there can never catch up.
	tl := l.TailFrom(0)
	defer tl.Close()
	appendWait(t, l, insertRec(9)) // give the bound something past the gap
	if _, _, err := tl.Next(); !errors.Is(err, ErrTailGap) {
		t.Fatalf("Next across a compaction gap = %v, want ErrTailGap", err)
	}
	// A tailer seeded at the checkpoint LSN follows the surviving segment.
	tl2 := l.TailFrom(last)
	defer tl2.Close()
	recs := drain(t, tl2)
	if len(recs) != 1 || recs[0].LSN != last+1 {
		t.Fatalf("tail from the checkpoint = %+v, want LSN %d", recs, last+1)
	}
}

func TestTailerCloseRefusesFurtherReads(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, 0, Options{})
	defer l.Close()
	appendWait(t, l, insertRec(1))
	tl := l.TailFrom(0)
	drain(t, tl)
	if err := tl.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := tl.Next(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Next after Close = %v, want ErrClosed", err)
	}
}
