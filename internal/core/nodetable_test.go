package core

import (
	"math"
	"testing"

	"dsks/internal/graph"
)

func TestNodeTable(t *testing.T) {
	var tab nodeTable
	if _, ok := tab.get(0); ok {
		t.Fatal("the zero table holds node 0")
	}
	// Enough keys to grow several times; multiples of 1024 collide in the
	// low bits, which the multiply-shift must spread.
	const n = 1000
	for i := 0; i < n; i++ {
		tab.put(graph.NodeID(i*1024), int32(i))
	}
	tab.put(0, -7) // overwrite
	if tab.n != n {
		t.Fatalf("%d live entries after %d distinct puts", tab.n, n)
	}
	if len(tab.slots) < 2*n || len(tab.slots)&(len(tab.slots)-1) != 0 {
		t.Fatalf("%d slots for %d entries: want a power of two at most half full", len(tab.slots), n)
	}
	for i := 1; i < n; i++ {
		if v, ok := tab.get(graph.NodeID(i * 1024)); !ok || v != int32(i) {
			t.Fatalf("get(%d) = %d, %v", i*1024, v, ok)
		}
	}
	if v, ok := tab.get(0); !ok || v != -7 {
		t.Fatalf("get(0) = %d, %v after overwrite", v, ok)
	}
	if _, ok := tab.get(5); ok {
		t.Fatal("get of an absent node succeeded")
	}

	slots := len(tab.slots)
	tab.reset()
	if len(tab.slots) != slots {
		t.Fatal("reset dropped the table's storage")
	}
	for i := 0; i < n; i++ {
		if _, ok := tab.get(graph.NodeID(i * 1024)); ok {
			t.Fatalf("node %d survived reset", i*1024)
		}
	}
	tab.put(3, 9)
	if v, ok := tab.get(3); !ok || v != 9 || tab.n != 1 {
		t.Fatalf("after reset: get(3) = %d, %v with %d live", v, ok, tab.n)
	}
}

// TestNodeTableGenerationWrap: when the generation counter wraps, entries
// stamped with the generation it wraps onto must not come back to life.
func TestNodeTableGenerationWrap(t *testing.T) {
	var tab nodeTable
	tab.put(1, 10) // stamped with generation 1
	tab.reset()
	tab.gen = math.MaxUint32
	tab.put(2, 20)
	tab.reset() // wraps
	if tab.gen == 0 {
		t.Fatal("generation 0 marks never-written slots and must be skipped")
	}
	for _, n := range []graph.NodeID{1, 2} {
		if _, ok := tab.get(n); ok {
			t.Fatalf("node %d resurrected by the generation wrap", n)
		}
		tab.put(n, 5)
		if v, ok := tab.get(n); !ok || v != 5 {
			t.Fatalf("get(%d) = %d, %v after the wrap", n, v, ok)
		}
	}
}

// FuzzNodeTable drives random put/get/reset sequences against a Go map.
// Each op is three bytes: kind, node, value; a small node space makes
// overwrites and hits common, and kind 3 jumps the generation forward to
// the brink of wrapping, as four billion resets would.
func FuzzNodeTable(f *testing.F) {
	f.Add([]byte{0, 1, 2, 1, 1, 0, 2, 0, 0, 1, 1, 0})
	f.Add([]byte{0, 200, 9, 3, 0, 0, 2, 0, 0, 0, 200, 4, 2, 0, 0, 1, 200, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		var tab nodeTable
		ref := make(map[graph.NodeID]int32)
		for ; len(ops) >= 3; ops = ops[3:] {
			n, v := graph.NodeID(ops[1])*257, int32(ops[2])
			switch ops[0] % 8 {
			case 0, 1, 2:
				tab.put(n, v)
				ref[n] = v
			case 3:
				if brink := math.MaxUint32 - uint32(ops[2]%2); tab.gen < brink {
					tab.gen = brink
				}
				fallthrough // every stamp is now stale: only a reset may follow
			case 4:
				tab.reset()
				clear(ref)
			default:
				got, ok := tab.get(n)
				if want, in := ref[n]; ok != in || (ok && got != want) {
					t.Fatalf("get(%d) = %d, %v; map has %d, %v", n, got, ok, want, in)
				}
			}
			if tab.n != len(ref) {
				t.Fatalf("%d live entries, map has %d", tab.n, len(ref))
			}
		}
		for n, want := range ref {
			if got, ok := tab.get(n); !ok || got != want {
				t.Fatalf("final get(%d) = %d, %v; map has %d", n, got, ok, want)
			}
		}
	})
}
