package graph

import "fmt"

// Route is a least-cost path between two network positions: the traversed
// edges in order and the total cost. The first and last edges are entered
// or left mid-edge at the endpoint positions.
type Route struct {
	Edges []EdgeID
	Cost  float64
}

// ShortestRoute computes the least-cost path from a to b with Dijkstra and
// parent pointers. For positions on the same edge the direct along-edge
// path competes with detours through the end-nodes.
func (g *Graph) ShortestRoute(a, b Position) (Route, error) {
	if int(a.Edge) >= g.NumEdges() || int(b.Edge) >= g.NumEdges() || a.Edge < 0 || b.Edge < 0 {
		return Route{}, fmt.Errorf("%w: route endpoint out of range", ErrUnknownEdge)
	}
	a, b = g.Clamp(a), g.Clamp(b)
	if a.Edge == b.Edge {
		direct := g.SameEdgeCost(a, b)
		if detour, ok := g.routeViaNodes(a, b); ok && detour.Cost < direct {
			return detour, nil
		}
		return Route{Edges: []EdgeID{a.Edge}, Cost: direct}, nil
	}
	r, ok := g.routeViaNodes(a, b)
	if !ok {
		return Route{}, fmt.Errorf("%w: edges %d and %d are not connected", ErrNoPath, a.Edge, b.Edge)
	}
	return r, nil
}

// routeViaNodes runs Dijkstra from a's end-nodes to b's end-nodes,
// tracking the entering edge of each reached node for reconstruction.
func (g *Graph) routeViaNodes(a, b Position) (Route, bool) {
	ea, eb := g.Edge(a.Edge), g.Edge(b.Edge)
	wa1, wa2 := g.CostToEnds(a)
	wb1, wb2 := g.CostToEnds(b)

	parentEdge := make([]EdgeID, g.NumNodes())
	parentEdge[ea.N1], parentEdge[ea.N2] = a.Edge, a.Edge
	dist := g.shortestPaths([]nodeItem{{ea.N1, wa1}, {ea.N2, wa2}}, Inf, parentEdge)
	best := Inf
	var endNode NodeID = InvalidNode
	if d := dist[eb.N1] + wb1; d < best {
		best, endNode = d, eb.N1
	}
	if d := dist[eb.N2] + wb2; d < best {
		best, endNode = d, eb.N2
	}
	if endNode == InvalidNode {
		return Route{}, false
	}
	// Walk the parent edges back from the reached end-node of b's edge.
	var rev []EdgeID
	rev = append(rev, b.Edge)
	n := endNode
	for {
		via := parentEdge[n]
		rev = append(rev, via)
		if via == a.Edge {
			break
		}
		n = g.Edge(via).OtherEnd(n)
	}
	edges := make([]EdgeID, 0, len(rev))
	for i := len(rev) - 1; i >= 0; i-- {
		// Collapse a duplicated first/last edge (a and b adjacent).
		if len(edges) > 0 && edges[len(edges)-1] == rev[i] {
			continue
		}
		edges = append(edges, rev[i])
	}
	return Route{Edges: edges, Cost: best}, true
}
