// Package shard splits the road network's object load across N
// independent dsks databases and answers queries over them by merging the
// shards' arrival streams into the unsharded one.
//
// The split reuses CCAM's recursive two-way bisection one level up: road
// nodes are sorted by the Z-order code of their location and bisected
// recursively into N contiguous groups, and every edge is owned by the
// group of its reference node (the end-node with the smaller ID). Object
// ownership follows edge ownership, so the shards are edge-disjoint: an
// object lives in exactly one shard. The road network itself is small
// relative to the object set and is replicated into every shard, which
// keeps per-shard network distances exact — a shard's candidates carry
// the same distances the unsharded database would compute, and the merged
// union is therefore bit-identical to a single-node answer.
//
// The partitioner also emits a compact boundary summary: the cut vertices
// (nodes incident to edges of two or more owners) with their coordinates,
// the MBR of each shard's owned edges, and the minimum cost-per-length
// ratio of the network. The router uses the summary to prune fan-out
// legs: a shard whose owned-edge MBR lies provably outside the query's
// δmax ball cannot contribute a candidate.
package shard

import (
	"fmt"
	"sort"

	"dsks/internal/geo"
	"dsks/internal/graph"
)

// CutVertex is a road node incident to edges owned by two or more shards.
// The set of cut vertices is the boundary graph: every cross-shard
// shortest path passes through at least one of them.
type CutVertex struct {
	Node graph.NodeID
	Loc  geo.Point
	// Shards lists the owners of the incident edges, ascending.
	Shards []int
}

// Region summarizes one shard's spatial footprint.
type Region struct {
	// Edges counts the shard's owned edges.
	Edges int
	// MBR bounds the shard's owned edges; every object the shard can
	// ever hold lies inside it (insertions are clamped to edge
	// segments, so the footprint never grows).
	MBR geo.Rect
}

// Partition is the N-way edge-disjoint split of a road network.
type Partition struct {
	// Shards is the number of groups N.
	Shards int
	// NodeGroup maps each node to its Z-order bisection group.
	NodeGroup []int32
	// Owner maps each edge to the shard owning it (the group of the
	// edge's reference node).
	Owner []int32
	// Cuts are the boundary vertices, ascending by node ID.
	Cuts []CutVertex
	// Regions holds one spatial summary per shard.
	Regions []Region
	// MinCostRatio is min over edges of Weight/Length. Along any path
	// the cost is at least MinCostRatio times the geometric length, and
	// the geometric length is at least the Euclidean distance between
	// the endpoints, so
	//
	//	networkDist(a, b) >= MinCostRatio * euclid(a, b)
	//
	// — the sound lower bound behind the router's δmax-ball pruning.
	MinCostRatio float64
}

// Split partitions the road network into n edge-disjoint shards by
// recursive two-way bisection of the Z-order node ordering, so each
// shard is a contiguous run of the Z curve.
func Split(g *graph.Graph, n int) (*Partition, error) {
	if g == nil {
		return nil, fmt.Errorf("shard: %w: nil graph", ErrBadShardCount)
	}
	if n < 1 {
		return nil, fmt.Errorf("shard: %w: %d", ErrBadShardCount, n)
	}
	if g.NumNodes() == 0 || g.NumEdges() == 0 {
		return nil, fmt.Errorf("shard: %w: empty graph", ErrBadShardCount)
	}
	if n > g.NumNodes() {
		return nil, fmt.Errorf("shard: %w: %d shards for %d nodes", ErrBadShardCount, n, g.NumNodes())
	}

	order := make([]graph.NodeID, g.NumNodes())
	for i := range order {
		order[i] = graph.NodeID(i)
	}
	sort.Slice(order, func(i, j int) bool {
		zi := geo.ZCode(g.Node(order[i]).Loc)
		zj := geo.ZCode(g.Node(order[j]).Loc)
		if zi != zj {
			return zi < zj
		}
		return order[i] < order[j]
	})

	p := &Partition{
		Shards:    n,
		NodeGroup: make([]int32, g.NumNodes()),
		Owner:     make([]int32, g.NumEdges()),
		Regions:   make([]Region, n),
	}

	// Recursive bisection: split the Z-ordered prefix proportionally so
	// odd shard counts still come out balanced (sizes differ by <= 1).
	var bisect func(lo, hi, base, parts int)
	bisect = func(lo, hi, base, parts int) {
		if parts == 1 {
			for i := lo; i < hi; i++ {
				p.NodeGroup[order[i]] = int32(base)
			}
			return
		}
		left := parts / 2
		mid := lo + (hi-lo)*left/parts
		bisect(lo, mid, base, left)
		bisect(mid, hi, base+left, parts-left)
	}
	bisect(0, len(order), 0, n)

	for i := range p.Regions {
		p.Regions[i].MBR = geo.EmptyRect()
	}
	p.MinCostRatio = 1
	first := true
	for e := 0; e < g.NumEdges(); e++ {
		edge := g.Edge(graph.EdgeID(e))
		owner := p.NodeGroup[edge.N1]
		p.Owner[e] = owner
		r := &p.Regions[owner]
		r.Edges++
		mbr := g.EdgeMBR(edge.ID)
		r.MBR.Expand(mbr)
		if edge.Length > 0 {
			ratio := edge.Weight / edge.Length
			if first || ratio < p.MinCostRatio {
				p.MinCostRatio = ratio
				first = false
			}
		}
	}

	p.Cuts = cutVertices(g, p.Owner)
	return p, nil
}

// cutVertices lists the nodes whose incident edges span two or more
// owners, each with the sorted owner set.
func cutVertices(g *graph.Graph, owner []int32) []CutVertex {
	var cuts []CutVertex
	for nd := 0; nd < g.NumNodes(); nd++ {
		id := graph.NodeID(nd)
		adj := g.Adjacent(id)
		if len(adj) == 0 {
			continue
		}
		seen := make(map[int32]bool, 2)
		for _, e := range adj {
			seen[owner[e]] = true
		}
		if len(seen) < 2 {
			continue
		}
		shards := make([]int, 0, len(seen))
		for s := range seen {
			shards = append(shards, int(s))
		}
		sort.Ints(shards)
		cuts = append(cuts, CutVertex{Node: id, Loc: g.Node(id).Loc, Shards: shards})
	}
	return cuts
}

// LowerBound is the provable minimum network distance from pt to any
// point of shard s's region: MinCostRatio times the Euclidean distance
// from pt to the region MBR. The second return is false for an empty
// region (a shard that owns no edges can hold no objects at all).
func (p *Partition) LowerBound(s int, pt geo.Point) (float64, bool) {
	r := p.Regions[s].MBR
	if r.IsEmpty() {
		return 0, false
	}
	return p.MinCostRatio * r.MinDist(pt), true
}
