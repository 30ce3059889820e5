package minheap

import (
	"math/rand"
	"sort"
	"testing"
)

// TestPopOrder checks the heap against a sort: entries come out by key,
// equal keys by ID, whatever the push order, and a Reset heap starts over
// on the same storage.
func TestPopOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var h Heap[int]
	for round := 0; round < 50; round++ {
		n := rng.Intn(200)
		want := make([]Entry[int], n)
		for i := range want {
			// Few distinct keys, so ties are the common case.
			want[i] = Entry[int]{Key: float64(rng.Intn(8)), ID: int32(rng.Intn(1000)), Val: i}
			h.Push(want[i].Key, want[i].ID, i)
		}
		sort.SliceStable(want, func(i, j int) bool { return want[i].less(want[j]) })
		if h.Len() != n {
			t.Fatalf("Len = %d after %d pushes", h.Len(), n)
		}
		for i, w := range want {
			if min := h.Min(); min.Key != w.Key || min.ID != w.ID {
				t.Fatalf("round %d: Min %d = (%v, %d), want (%v, %d)", round, i, min.Key, min.ID, w.Key, w.ID)
			}
			if got := h.Pop(); got.Key != w.Key || got.ID != w.ID {
				t.Fatalf("round %d: pop %d = (%v, %d), want (%v, %d)", round, i, got.Key, got.ID, w.Key, w.ID)
			}
		}
		h.Push(1, 1, 0)
		h.Reset()
		if h.Len() != 0 {
			t.Fatalf("Len = %d after Reset", h.Len())
		}
	}
}
