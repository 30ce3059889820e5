package dsks

import (
	"testing"
	"time"
)

// TestResetIOIsLatchFree is a white-box check of the ResetIO contract:
// it must complete while another goroutine holds the database write
// latch. The counters swap atomically and the pools use their own short
// internal latches, so a writer mid-commit can never stall a reset (and
// vice versa). Before the atomic-swap redesign ResetIO took db.mu and
// this test would deadlock until the timeout.
func TestResetIOIsLatchFree(t *testing.T) {
	g, err := GenerateNetwork(NetworkConfig{Nodes: 20, EdgeFactor: 1.5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	col := NewCollection()
	for e := 0; e < g.NumEdges(); e += 2 {
		col.Add(Position{Edge: EdgeID(e), Offset: 0.5}, []TermID{0, 1})
	}
	db, err := Open(g, col, 4, Options{Index: IndexSIF})
	if err != nil {
		t.Fatal(err)
	}

	// Simulate a writer parked mid-commit: ResetIO must not need db.mu.
	db.mu.Lock()
	defer db.mu.Unlock()

	done := make(chan error, 1)
	go func() { done <- db.ResetIO() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("ResetIO under the write latch: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ResetIO blocked on the database write latch; it must be latch-free")
	}

	if got := db.eng.DiskReads(); got != 0 {
		t.Fatalf("disk-read counter after reset = %d, want 0", got)
	}
}
