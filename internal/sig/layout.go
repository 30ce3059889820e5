// Package sig implements the signature-based inverted indexing technique of
// Sections 3.1 and 3.3: per-keyword edge signatures organized over a
// KD-tree partition of the edge centers (with subtree compaction), the
// partition enhancement that splits an edge's objects into virtual edges
// (the greedy heuristic, or any Partitioner the caller supplies), and the
// query-log models used to drive the partitioning. The exact dynamic
// program, the replayed query log and the group-based SIF-G baseline are
// the experiments' (internal/experiments/baselines).
package sig

import (
	"sort"

	"dsks/internal/geo"
	"dsks/internal/graph"
)

// Layout maps every edge (and, for partitioned edges, every virtual edge)
// to a dense "slot" in KD order. The KD-tree recursively splits the edge
// centers by median, alternating axes, so slots of spatially close edges
// are adjacent — which is what makes subtree compaction effective.
type Layout struct {
	kdOrder   []graph.EdgeID // KD rank -> edge
	kdRank    []int32        // edge -> KD rank
	slotStart []int32        // KD rank -> first slot of the edge
	slotCount []int32        // KD rank -> number of virtual edges (>= 1)
	total     int32
}

// NewLayout computes the KD ordering of all edges of g. Every edge starts
// with a single slot; SetVirtualEdges expands partitioned edges before
// Finalize assigns slot numbers.
func NewLayout(g *graph.Graph) *Layout {
	n := g.NumEdges()
	order := make([]graph.EdgeID, n)
	centers := make([]geo.Point, n)
	for i := 0; i < n; i++ {
		order[i] = graph.EdgeID(i)
		centers[i] = g.EdgeCenter(graph.EdgeID(i))
	}
	var build func(lo, hi, axis int)
	build = func(lo, hi, axis int) {
		if hi-lo <= 1 {
			return
		}
		mid := (lo + hi) / 2
		part := order[lo:hi]
		sort.Slice(part, func(i, j int) bool {
			a, b := centers[part[i]], centers[part[j]]
			if axis == 0 {
				if a.X != b.X {
					return a.X < b.X
				}
				return a.Y < b.Y
			}
			if a.Y != b.Y {
				return a.Y < b.Y
			}
			return a.X < b.X
		})
		build(lo, mid, 1-axis)
		build(mid, hi, 1-axis)
	}
	build(0, n, 0)

	l := &Layout{
		kdOrder:   order,
		kdRank:    make([]int32, n),
		slotStart: make([]int32, n),
		slotCount: make([]int32, n),
	}
	for r, e := range order {
		l.kdRank[e] = int32(r)
		l.slotCount[r] = 1
	}
	l.finalize()
	return l
}

// SetVirtualEdges declares that edge e is partitioned into count virtual
// edges (count >= 1). Call Finalize afterwards to recompute slot numbers.
func (l *Layout) SetVirtualEdges(e graph.EdgeID, count int) {
	if count < 1 {
		count = 1
	}
	l.slotCount[l.kdRank[e]] = int32(count)
}

// Finalize recomputes slot assignments after SetVirtualEdges calls.
func (l *Layout) Finalize() { l.finalize() }

func (l *Layout) finalize() {
	var s int32
	for r := range l.slotStart {
		l.slotStart[r] = s
		s += l.slotCount[r]
	}
	l.total = s
}

// NumEdges returns the number of edges in the layout.
func (l *Layout) NumEdges() int { return len(l.kdOrder) }

// NumSlots returns the total number of slots (edges + extra virtual edges).
func (l *Layout) NumSlots() int32 { return l.total }

// Slots returns the slot range [start, start+count) of edge e.
func (l *Layout) Slots(e graph.EdgeID) (start, count int32) {
	r := l.kdRank[e]
	return l.slotStart[r], l.slotCount[r]
}

// VirtualEdges returns how many virtual edges e has (1 = unpartitioned).
func (l *Layout) VirtualEdges(e graph.EdgeID) int { return int(l.slotCount[l.kdRank[e]]) }
