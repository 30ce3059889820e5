package storage

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"testing"
	"time"

	"dsks/internal/fault"
)

// TestMissWaitsItsLatency: a buffer miss waits at least its IOLatency,
// and on Linux not much more; a deadline still cuts an hour-long seek
// short, and the retry backoff waits its configured steps too.
func TestMissWaitsItsLatency(t *testing.T) {
	const lat = 100 * time.Microsecond
	pool, ids := poolWithColdPages(t, 2, 200)
	pool.SetIOLatency(lat)

	// (a) The lower bound holds on every host: a wait is never skipped
	// or shortened.
	start := time.Now()
	for _, id := range ids {
		if _, err := pool.Get(id); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := time.Since(start), time.Duration(len(ids))*lat; got < want {
		t.Errorf("%d cold misses at %v took %v, want at least %v", len(ids), lat, got, want)
	}
	if got := pool.Stats().DiskRead.Load(); got != int64(len(ids)) {
		t.Fatalf("DiskRead = %d, want %d", got, len(ids))
	}

	// (b) On Linux the wait blocks in the kernel, so one miss costs its
	// latency plus a small margin, not the Go timer's 1ms floor.
	if runtime.GOOS == "linux" {
		if err := pool.DropAll(); err != nil {
			t.Fatal(err)
		}
		walls := make([]time.Duration, 101)
		for i := range walls {
			start := time.Now()
			if _, err := pool.Get(ids[i]); err != nil {
				t.Fatal(err)
			}
			walls[i] = time.Since(start)
		}
		slices.Sort(walls)
		if med := walls[len(walls)/2]; med >= 500*time.Microsecond {
			t.Errorf("median single-miss wall time at %v latency = %v, want below 500µs", lat, med)
		}
	}

	// (c) A deadline aborts an hour-long seek promptly.
	pool.SetIOLatency(time.Hour)
	if err := pool.DropAll(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	start = time.Now()
	if _, err := pool.GetCtx(ctx, ids[0]); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("miss past its deadline = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("expired miss took %v, want prompt abort", elapsed)
	}

	// (d) Two transient faults wait out the backoff 300µs, then 600µs.
	pool.SetIOLatency(0)
	pool.setRetry(2, 300*time.Microsecond)
	in, err := fault.New(fault.Config{Op: fault.OpRead, EveryN: 1, MaxFaults: 2, Transient: true})
	if err != nil {
		t.Fatal(err)
	}
	pool.File().SetInjector(in)
	start = time.Now()
	if _, err := pool.Get(ids[1]); err != nil {
		t.Fatalf("read with two transient faults failed: %v", err)
	}
	if got, want := time.Since(start), 900*time.Microsecond; got < want {
		t.Errorf("two retries under setRetry(2, 300µs) took %v, want at least %v", got, want)
	}
}
