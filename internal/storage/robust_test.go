package storage

import (
	"context"
	"errors"
	"testing"
	"time"

	"dsks/internal/fault"
)

// newPoolWithPage returns a 2-frame pool over a PageFile with one
// allocated page whose first byte is 0xAA, flushed to the file.
func newPoolWithPage(t *testing.T) (*BufferPool, *PageFile, PageID) {
	t.Helper()
	f := NewPageFile()
	pool := NewBufferPool(f, 2, nil)
	p, err := pool.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	id := p.ID()
	p.Data()[0] = 0xAA
	pool.MarkDirty(id)
	if err := pool.DropAll(); err != nil {
		t.Fatal(err)
	}
	return pool, f, id
}

func TestChecksumDetectsBitFlip(t *testing.T) {
	pool, f, id := newPoolWithPage(t)
	pool.SetChecksums(true)

	// First read stamps the baseline.
	if _, err := pool.Get(id); err != nil {
		t.Fatal(err)
	}
	if err := pool.DropAll(); err != nil {
		t.Fatal(err)
	}

	// Every read from now on flips one bit of the returned bytes.
	in, err := fault.New(fault.Config{EveryN: 1, Mode: fault.ModeFlipBit, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	f.SetInjector(in)
	_, err = pool.Get(id)
	if !errors.Is(err, ErrCorruptPage) {
		t.Fatalf("flipped page read err = %v, want ErrCorruptPage", err)
	}
	if got := pool.Stats().Snapshot().CorruptPage; got != 1 {
		t.Errorf("CorruptPage counter = %d, want 1", got)
	}

	// Clearing the injector heals the medium: the clean bytes verify again.
	f.SetInjector(nil)
	p, err := pool.Get(id)
	if err != nil {
		t.Fatalf("clean re-read failed: %v", err)
	}
	if p.Data()[0] != 0xAA {
		t.Errorf("page byte = %#x, want 0xAA", p.Data()[0])
	}
}

func TestChecksumOffAdmitsCorruption(t *testing.T) {
	pool, f, id := newPoolWithPage(t)
	// No SetChecksums: the flip goes undetected (the paper-faithful
	// default trades integrity checking for byte-exact accounting).
	in, err := fault.New(fault.Config{EveryN: 1, Mode: fault.ModeFlipBit, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	f.SetInjector(in)
	if _, err := pool.Get(id); err != nil {
		t.Fatalf("checksum-off read failed: %v", err)
	}
	if got := pool.Stats().Snapshot().CorruptPage; got != 0 {
		t.Errorf("CorruptPage counter = %d, want 0", got)
	}
}

func TestTransientReadFaultIsRetried(t *testing.T) {
	pool, f, id := newPoolWithPage(t)
	pool.setRetry(3, 10*time.Microsecond)

	// Two transient failures, then success: the retry loop absorbs both.
	in, err := fault.New(fault.Config{Op: fault.OpRead, EveryN: 1, MaxFaults: 2, Transient: true})
	if err != nil {
		t.Fatal(err)
	}
	f.SetInjector(in)
	p, err := pool.Get(id)
	if err != nil {
		t.Fatalf("read with transient faults failed: %v", err)
	}
	if p.Data()[0] != 0xAA {
		t.Errorf("page byte = %#x, want 0xAA", p.Data()[0])
	}
	if got := pool.Stats().Snapshot().ReadRetries; got != 2 {
		t.Errorf("ReadRetries = %d, want 2", got)
	}
}

func TestPermanentFaultIsNotRetried(t *testing.T) {
	pool, f, id := newPoolWithPage(t)
	pool.setRetry(5, 10*time.Microsecond)

	in, err := fault.New(fault.Config{Op: fault.OpRead, EveryN: 1}) // permanent
	if err != nil {
		t.Fatal(err)
	}
	f.SetInjector(in)
	if _, err := pool.Get(id); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("read err = %v, want injected fault", err)
	}
	if got := pool.Stats().Snapshot().ReadRetries; got != 0 {
		t.Errorf("ReadRetries = %d, want 0 for a permanent fault", got)
	}
}

func TestRetryBudgetExhausts(t *testing.T) {
	pool, f, id := newPoolWithPage(t)
	pool.setRetry(2, 10*time.Microsecond)

	// More consecutive transient faults than the retry budget.
	in, err := fault.New(fault.Config{Op: fault.OpRead, EveryN: 1, Transient: true})
	if err != nil {
		t.Fatal(err)
	}
	f.SetInjector(in)
	_, gotErr := pool.Get(id)
	if !errors.Is(gotErr, fault.ErrInjected) {
		t.Fatalf("read err = %v, want injected fault after retries exhaust", gotErr)
	}
	if !fault.IsTransient(gotErr) {
		t.Errorf("exhausted-retries error lost its transient marker: %v", gotErr)
	}
	if got := pool.Stats().Snapshot().ReadRetries; got != 2 {
		t.Errorf("ReadRetries = %d, want 2", got)
	}
}

func TestRetryHonorsCancellation(t *testing.T) {
	pool, f, id := newPoolWithPage(t)
	pool.setRetry(10, 50*time.Millisecond)

	in, err := fault.New(fault.Config{Op: fault.OpRead, EveryN: 1, Transient: true})
	if err != nil {
		t.Fatal(err)
	}
	f.SetInjector(in)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, gotErr := pool.GetCtx(ctx, id)
	if !errors.Is(gotErr, context.DeadlineExceeded) {
		t.Fatalf("read err = %v, want deadline exceeded", gotErr)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("canceled retry took %v, want prompt abort", elapsed)
	}
}

func TestTornWriteDetectedByChecksum(t *testing.T) {
	pool, f, id := newPoolWithPage(t)
	pool.SetChecksums(true)

	// Tear the next write-back to a 64-byte prefix. The stamp records the
	// full intended page, so the torn remainder fails verification on the
	// next miss.
	in, err := fault.New(fault.Config{Op: fault.OpWrite, EveryN: 1, MaxFaults: 1,
		Mode: fault.ModeTornWrite, TornBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	p, err := pool.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	for i := range p.Data() {
		p.Data()[i] = 0x5C
	}
	pool.MarkDirty(id)
	f.SetInjector(in)
	if err := pool.Flush(); err != nil {
		t.Fatal(err)
	}
	f.SetInjector(nil)
	if err := pool.DropAll(); err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Get(id); !errors.Is(err, ErrCorruptPage) {
		t.Fatalf("torn page read err = %v, want ErrCorruptPage", err)
	}
}
