package storage

import (
	"context"
	"errors"
	"testing"
	"time"
)

// The tests in this file pin the pool's structural invariants: every
// page I/O is counted, no physical read or injected seek runs under the
// pool latch, and a published version is complete before it becomes
// visible.

// opHook is an Injector that only watches: it calls itself before every
// page operation and never corrupts or tears anything.
type opHook func(op string, page uint32) error

func (h opHook) BeforeOp(op string, page uint32) error { return h(op, page) }
func (opHook) CorruptRead(uint32, []byte) bool         { return false }
func (opHook) WriteLimit(_ uint32, size int) int       { return size }

// TestPublishInstallsBeforeVisible: Publish calls visible only once the
// batch's pages are installed, so a reader that pins the new LSN the
// moment it becomes reachable already reads the new bytes.
func TestPublishInstallsBeforeVisible(t *testing.T) {
	pool := NewBufferPool(NewPageFile(), 4, nil)
	id := newMVCCPage(t, pool, 100)
	w := pool.NewBatch(1)
	p, err := w.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	p.PutUint32(0, 200)
	w.MarkDirty(id)

	calls := 0
	pool.Publish(w, func() {
		calls++
		if got := readAt(t, pool, id, w.LSN()); got != 200 {
			t.Errorf("a reader pinned at LSN %d from inside visible reads %d, want 200", w.LSN(), got)
		}
	})
	if calls != 1 {
		t.Fatalf("visible called %d times, want 1", calls)
	}
}

// TestMissReadsOutsideTheLatch: the physical read of a miss runs with
// the pool latch free. The test is single-goroutine, so a failed
// TryLock means the reading caller itself holds the latch.
func TestMissReadsOutsideTheLatch(t *testing.T) {
	f := NewPageFile()
	pool := NewBufferPool(f, 2, nil)
	var ids []PageID
	for i := 0; i < 4; i++ {
		ids = append(ids, newMVCCPage(t, pool, uint32(i)))
	}
	if err := pool.DropAll(); err != nil {
		t.Fatal(err)
	}
	reads := 0
	f.SetInjector(opHook(func(op string, page uint32) error {
		if op != "read" {
			return nil
		}
		reads++
		if !pool.mu.TryLock() {
			t.Errorf("page %d read with the pool latch held", page)
			return nil
		}
		pool.mu.Unlock()
		return nil
	}))
	for _, id := range ids {
		if _, err := pool.Get(id); err != nil {
			t.Fatal(err)
		}
	}
	if reads != len(ids) {
		t.Fatalf("%d physical reads for %d cold pages", reads, len(ids))
	}
}

// TestHitDuringMissLatency: a miss sleeping out its injected latency
// does not hold the latch, so a hit on another page returns at once.
// The latency is an hour; 10 s is only the failure bound.
func TestHitDuringMissLatency(t *testing.T) {
	pool := NewBufferPool(NewPageFile(), 2, nil)
	hot := newMVCCPage(t, pool, 1)
	cold := newMVCCPage(t, pool, 2)
	if err := pool.DropAll(); err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Get(hot); err != nil {
		t.Fatal(err)
	}
	pool.SetIOLatency(time.Hour)
	requests := pool.Stats().LogicalRead.Load()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	missDone := make(chan error, 1)
	go func() {
		_, err := pool.GetCtx(ctx, cold)
		missDone <- err
	}()
	// The request is counted under the latch just before the sleep.
	for pool.Stats().LogicalRead.Load() == requests {
		time.Sleep(100 * time.Microsecond)
	}

	hitDone := make(chan error, 1)
	go func() {
		_, err := pool.Get(hot)
		hitDone <- err
	}()
	select {
	case err := <-hitDone:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Error("a hit waited on a miss asleep in its injected latency")
	}
	cancel()
	if err := <-missDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled miss = %v, want context.Canceled", err)
	}
}

// TestWriteBacksAreCounted: the file's own tally of reads and writes
// equals IOStats' DiskRead and DiskWrite after misses, dirty evictions,
// the SetCapacity shrink, Flush and FoldTo, and each of those steps
// writes at least once, so an uncounted path shows as a gap.
func TestWriteBacksAreCounted(t *testing.T) {
	f := NewPageFile()
	pool := NewBufferPool(f, 4, nil)
	var reads, writes int64
	f.SetInjector(opHook(func(op string, _ uint32) error {
		switch op {
		case "read":
			reads++
		case "write":
			writes++
		}
		return nil
	}))
	var ids []PageID
	step := func(name string, wantWrite bool, do func() error) {
		t.Helper()
		before := pool.Stats().DiskWrite.Load()
		if err := do(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		s := pool.Stats().Snapshot()
		if reads != s.DiskRead || writes != s.DiskWrite {
			t.Fatalf("after %s the file saw %d reads and %d writes, IOStats counts %d and %d",
				name, reads, writes, s.DiskRead, s.DiskWrite)
		}
		if wantWrite && s.DiskWrite == before {
			t.Fatalf("%s wrote nothing back", name)
		}
	}
	step("allocations with dirty evictions", true, func() error {
		for i := 0; i < 6; i++ {
			p, err := pool.Allocate()
			if err != nil {
				return err
			}
			p.PutUint32(0, uint32(i))
			ids = append(ids, p.ID())
		}
		return nil
	})
	step("the shrink", true, func() error {
		for _, id := range ids[2:] {
			pool.MarkDirty(id)
		}
		return pool.SetCapacity(2)
	})
	step("Flush", true, func() error {
		for _, id := range ids[4:] {
			pool.MarkDirty(id)
		}
		return pool.Flush()
	})
	step("misses", false, func() error {
		if err := pool.DropAll(); err != nil {
			return err
		}
		for _, id := range ids {
			if _, err := pool.Get(id); err != nil {
				return err
			}
		}
		return nil
	})
	step("FoldTo", true, func() error {
		w := pool.NewBatch(1)
		p, err := w.Get(ids[0])
		if err != nil {
			return err
		}
		p.PutUint32(0, 99)
		w.MarkDirty(ids[0])
		pool.Publish(w, nil)
		return pool.FoldTo(1)
	})
	if reads == 0 {
		t.Fatal("no page was read from the file")
	}
}
