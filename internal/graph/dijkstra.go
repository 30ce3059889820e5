package graph

import (
	"container/heap"
	"math"
)

// This file provides exact in-memory shortest-path computation. It is the
// ground truth the tests compare the disk-resident traversal kernel
// (internal/core) against, which is why it shares no code with it, and it
// serves the landmark sweeps and the route API.

// nodeHeap is a min-priority queue of (node, dist) used by Dijkstra.
type nodeItem struct {
	node NodeID
	dist float64
}

type nodeHeap []nodeItem

func (h nodeHeap) Len() int            { return len(h) }
func (h nodeHeap) Less(i, j int) bool  { return h[i].dist < h[j].dist }
func (h nodeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *nodeHeap) Push(x interface{}) { *h = append(*h, x.(nodeItem)) }
func (h *nodeHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// Inf is the distance reported for unreachable targets.
var Inf = math.Inf(1)

// shortestPaths is the package's one Dijkstra loop: seeded with (node,
// cost) sources — one for a node, two for a mid-edge position — it returns
// the network distance to every node. Distances above bound are not
// explored; unreached nodes report Inf. A non-nil parent records, for each
// node whose distance improves past its seed, the edge it was reached by.
func (g *Graph) shortestPaths(seeds []nodeItem, bound float64, parent []EdgeID) []float64 {
	dist := make([]float64, g.NumNodes())
	for i := range dist {
		dist[i] = Inf
	}
	h := &nodeHeap{}
	for _, s := range seeds {
		if s.dist < dist[s.node] {
			dist[s.node] = s.dist
			heap.Push(h, s)
		}
	}
	for h.Len() > 0 {
		it := heap.Pop(h).(nodeItem)
		if it.dist > dist[it.node] {
			continue // stale entry
		}
		if it.dist > bound {
			break
		}
		for _, eid := range g.Adjacent(it.node) {
			e := g.Edge(eid)
			m := e.OtherEnd(it.node)
			if d := it.dist + e.Weight; d < dist[m] {
				dist[m] = d
				if parent != nil {
					parent[m] = eid
				}
				heap.Push(h, nodeItem{m, d})
			}
		}
	}
	return dist
}

// DistancesFromNode runs Dijkstra from node src and returns the network
// distance to every node. Distances above bound are not explored; pass
// graph.Inf for an unbounded search. Unreached nodes report Inf.
func (g *Graph) DistancesFromNode(src NodeID, bound float64) []float64 {
	return g.shortestPaths([]nodeItem{{src, 0}}, bound, nil)
}

// DistancesFromPosition returns the network distance from position p to
// every node, bounded by bound.
func (g *Graph) DistancesFromPosition(p Position, bound float64) []float64 {
	p = g.Clamp(p)
	e := g.Edge(p.Edge)
	w1, w2 := g.CostToEnds(p)
	return g.shortestPaths([]nodeItem{{e.N1, w1}, {e.N2, w2}}, bound, nil)
}

// NetworkDist returns the exact network distance between two positions,
// following the paper's Equation 1: the distance to a point on edge
// (n1, n2) is min over both end-nodes of (distance to end + offset cost),
// with the special case of both points sharing an edge, where the direct
// along-edge path competes with paths through the end-nodes.
func (g *Graph) NetworkDist(a, b Position) float64 {
	a, b = g.Clamp(a), g.Clamp(b)
	direct := Inf
	if a.Edge == b.Edge {
		direct = g.SameEdgeCost(a, b)
		if direct == 0 {
			return 0
		}
	}
	eb := g.Edge(b.Edge)
	dist := g.DistancesFromPosition(a, Inf)
	b1, b2 := g.CostToEnds(b)
	viaNodes := math.Min(dist[eb.N1]+b1, dist[eb.N2]+b2)
	return math.Min(direct, viaNodes)
}
