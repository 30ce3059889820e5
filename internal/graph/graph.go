// Package graph models the road network of the paper: a weighted,
// bidirectional graph G = (V, E, W) whose nodes are road intersections and
// whose edges are road segments. Spatio-textual objects lie on edges at an
// offset from the edge's reference node (the end-node with the smaller ID).
package graph

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"dsks/internal/geo"
)

// NodeID identifies a road node.
type NodeID int32

// EdgeID identifies a road segment.
type EdgeID int32

// InvalidNode and InvalidEdge are null references.
const (
	InvalidNode NodeID = -1
	InvalidEdge EdgeID = -1
)

// Node is a road intersection.
type Node struct {
	ID  NodeID
	Loc geo.Point
}

// Edge is a bidirectional road segment between two nodes. N1 is always the
// reference node (the smaller ID). Length is the geometric length of the
// segment; Weight is its traversal cost (distance or travel time). For a
// distance cost model Weight == Length.
type Edge struct {
	ID     EdgeID
	N1, N2 NodeID
	Length float64
	Weight float64
}

// OtherEnd returns the end-node opposite to n, or InvalidNode if n is not
// an end-node of e.
func (e Edge) OtherEnd(n NodeID) NodeID {
	switch n {
	case e.N1:
		return e.N2
	case e.N2:
		return e.N1
	}
	return InvalidNode
}

// Graph is the in-memory road network used to build the disk-resident CCAM
// structure and the object indexes. It is immutable once built (construction
// via AddNode/AddEdge, then Freeze).
type Graph struct {
	nodes  []Node
	edges  []Edge
	adj    [][]EdgeID // adjacency: node -> incident edges
	frozen bool
	// ranks is the table EdgeRanks memoises, built once under ranksOnce.
	ranksOnce sync.Once
	ranks     []uint32
}

// New returns an empty graph.
func New() *Graph { return &Graph{} }

// AddNode appends a node at p and returns its ID.
func (g *Graph) AddNode(p geo.Point) NodeID {
	if g.frozen {
		panic("graph: AddNode after Freeze")
	}
	id := NodeID(len(g.nodes))
	g.nodes = append(g.nodes, Node{ID: id, Loc: p})
	g.adj = append(g.adj, nil)
	return id
}

// AddEdge connects a and b with the given weight. The geometric length is
// the Euclidean distance between the endpoints; the reference node is the
// smaller ID. It returns the new edge's ID, or an error for invalid
// endpoints, self-loops or non-positive weight.
func (g *Graph) AddEdge(a, b NodeID, weight float64) (EdgeID, error) {
	if g.frozen {
		panic("graph: AddEdge after Freeze")
	}
	if a == b {
		return InvalidEdge, fmt.Errorf("graph: self-loop at node %d", a)
	}
	if !g.validNode(a) || !g.validNode(b) {
		return InvalidEdge, fmt.Errorf("graph: edge (%d,%d) references unknown node", a, b)
	}
	if weight <= 0 || math.IsNaN(weight) || math.IsInf(weight, 0) {
		return InvalidEdge, fmt.Errorf("graph: edge (%d,%d) has invalid weight %v", a, b, weight)
	}
	if a > b {
		a, b = b, a
	}
	length := g.nodes[a].Loc.Dist(g.nodes[b].Loc)
	if length == 0 {
		// Coincident endpoints: use the weight as a nominal length so that
		// offsets along the edge remain well defined.
		length = weight
	}
	id := EdgeID(len(g.edges))
	g.edges = append(g.edges, Edge{ID: id, N1: a, N2: b, Length: length, Weight: weight})
	g.adj[a] = append(g.adj[a], id)
	g.adj[b] = append(g.adj[b], id)
	return id, nil
}

// Freeze finalizes the graph: adjacency lists are sorted by the opposite
// end-node ID for deterministic traversal. Further mutation panics.
func (g *Graph) Freeze() {
	if g.frozen {
		return
	}
	for n := range g.adj {
		nid := NodeID(n)
		lst := g.adj[n]
		sort.Slice(lst, func(i, j int) bool {
			return g.edges[lst[i]].OtherEnd(nid) < g.edges[lst[j]].OtherEnd(nid)
		})
	}
	g.frozen = true
}

// EdgeRanks returns the per-edge table rank makes of the frozen graph g,
// calling rank once per graph: g holds one such table, the inverted
// file's key order, and every caller passes the same rank. The slice must
// not be modified. An unfrozen graph can grow, so it gets a fresh table.
func (g *Graph) EdgeRanks(rank func(*Graph) []uint32) []uint32 {
	if !g.frozen {
		return rank(g)
	}
	g.ranksOnce.Do(func() { g.ranks = rank(g) })
	return g.ranks
}

// NumNodes returns |V|.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumEdges returns |E|.
func (g *Graph) NumEdges() int { return len(g.edges) }

// Node returns the node with the given ID.
func (g *Graph) Node(id NodeID) Node { return g.nodes[id] }

// Edge returns the edge with the given ID.
func (g *Graph) Edge(id EdgeID) Edge { return g.edges[id] }

// Adjacent returns the IDs of the edges incident to n. The returned slice
// must not be modified.
func (g *Graph) Adjacent(n NodeID) []EdgeID { return g.adj[n] }

// Degree returns the number of edges incident to n.
func (g *Graph) Degree(n NodeID) int { return len(g.adj[n]) }

// EdgeBetween returns the edge connecting a and b, if any. When parallel
// edges exist the one with the smallest weight is returned (it dominates
// any shortest path).
func (g *Graph) EdgeBetween(a, b NodeID) (Edge, bool) {
	if !g.validNode(a) || !g.validNode(b) {
		return Edge{}, false
	}
	best, found := Edge{}, false
	for _, eid := range g.adj[a] {
		e := g.edges[eid]
		if e.OtherEnd(a) == b && (!found || e.Weight < best.Weight) {
			best, found = e, true
		}
	}
	return best, found
}

// EdgeMBR returns the minimum bounding rectangle of edge e's segment.
func (g *Graph) EdgeMBR(id EdgeID) geo.Rect {
	e := g.edges[id]
	return geo.RectOf(g.nodes[e.N1].Loc, g.nodes[e.N2].Loc)
}

// EdgeCenter returns the center point of the edge's segment; its Z-order
// code orders the edges of one CCAM region in the inverted file's keys.
func (g *Graph) EdgeCenter(id EdgeID) geo.Point {
	e := g.edges[id]
	return geo.RectOf(g.nodes[e.N1].Loc, g.nodes[e.N2].Loc).Center()
}

// PointAt returns the location of the point at geometric offset d from the
// reference node N1 along edge e. d is clamped to [0, Length].
func (g *Graph) PointAt(id EdgeID, d float64) geo.Point {
	e := g.edges[id]
	if e.Length == 0 {
		return g.nodes[e.N1].Loc
	}
	return g.nodes[e.N1].Loc.Lerp(g.nodes[e.N2].Loc, d/e.Length)
}

// WeightAt converts a geometric offset along edge e (distance from N1) into
// a traversal cost from N1, per the paper's w(n1,p) = w(n1,n2)·d(n1,p)/d(n1,n2).
func (g *Graph) WeightAt(id EdgeID, d float64) float64 {
	e := g.edges[id]
	if e.Length == 0 {
		return 0
	}
	if d < 0 {
		d = 0
	} else if d > e.Length {
		d = e.Length
	}
	return e.Weight * d / e.Length
}

// Connected reports whether every node is reachable from node 0
// (breadth-first over edges). An empty graph is connected.
func (g *Graph) Connected() bool {
	if len(g.nodes) == 0 {
		return true
	}
	seen := make([]bool, len(g.nodes))
	queue := []NodeID{0}
	seen[0] = true
	count := 1
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, eid := range g.adj[n] {
			m := g.edges[eid].OtherEnd(n)
			if !seen[m] {
				seen[m] = true
				count++
				queue = append(queue, m)
			}
		}
	}
	return count == len(g.nodes)
}

// MBR returns the bounding rectangle of all node locations.
func (g *Graph) MBR() geo.Rect {
	r := geo.EmptyRect()
	for i := range g.nodes {
		r.ExpandPoint(g.nodes[i].Loc)
	}
	return r
}

func (g *Graph) validNode(n NodeID) bool { return n >= 0 && int(n) < len(g.nodes) }
