package core

import (
	"math/bits"

	"dsks/internal/graph"
)

// nodeTable maps the road nodes one query touches to small integers —
// positions in a slice its owner keeps. It stands where a Go map stood on
// the distance engine's hot path: a query starts some nine hundred
// traversals of a handful of nodes each, and emptying a map sweeps every
// bucket it ever grew, where each slot here carries the generation that
// wrote it and reset bumps a counter; a lookup is one multiply-shift and a
// short linear probe. A dense array indexed by node would be faster still
// and is the wrong trade: O(NumNodes) memory per in-flight query, and a
// pool with a release call on every query path. The zero value is empty.
type nodeTable struct {
	slots []nodeSlot // power-of-two length, at most half full
	shift uint8      // 32 − log₂ len(slots)
	gen   uint32     // a slot is live iff it carries this stamp; never 0 once slots exist
	n     int        // live slots
}

type nodeSlot struct {
	gen  uint32
	node graph.NodeID
	val  int32
}

// reset empties the table and keeps its storage.
func (t *nodeTable) reset() {
	t.n = 0
	if t.gen++; t.gen == 0 {
		// Wrapped: a slot stamped 2³² resets ago would read as live again.
		clear(t.slots)
		t.gen = 1
	}
}

// probe returns node n's slot, or the empty slot where n belongs.
func (t *nodeTable) probe(n graph.NodeID) *nodeSlot {
	mask := uint32(len(t.slots) - 1)
	for i := uint32(n) * 0x9E3779B1 >> t.shift; ; i = (i + 1) & mask {
		if s := &t.slots[i]; s.gen != t.gen || s.node == n {
			return s
		}
	}
}

func (t *nodeTable) get(n graph.NodeID) (int32, bool) {
	if t.n == 0 {
		return 0, false
	}
	s := t.probe(n)
	return s.val, s.gen == t.gen
}

func (t *nodeTable) put(n graph.NodeID, v int32) {
	if 2*t.n >= len(t.slots) {
		t.grow()
	}
	s := t.probe(n)
	if s.gen != t.gen {
		t.n++
	}
	*s = nodeSlot{gen: t.gen, node: n, val: v}
}

func (t *nodeTable) grow() {
	old := t.slots
	t.slots = make([]nodeSlot, max(16, 2*len(old)))
	t.shift = uint8(32 - bits.TrailingZeros(uint(len(t.slots))))
	t.gen = max(t.gen, 1)
	for _, s := range old {
		if s.gen == t.gen {
			*t.probe(s.node) = s
		}
	}
}
