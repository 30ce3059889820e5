// Package snap maps arbitrary planar points to their closest road
// segment — the preprocessing step the paper applies to objects that "do
// not lie on any edge in the road network". It runs once, before
// indexing; no query snaps, so the served binary does not link it.
package snap

import (
	"errors"
	"fmt"

	"dsks/internal/geo"
	"dsks/internal/graph"
	"dsks/internal/rtree"
	"dsks/internal/storage"
)

// ErrEmptyNetwork reports snapping onto a network with no edges.
var ErrEmptyNetwork = errors.New("snap: empty network")

// Snapper is a network R-tree over the edge MBRs (Section 2.2) with
// exact point-to-segment refinement. Build one per network and reuse it
// across points.
type Snapper struct {
	g    *graph.Graph
	tree *rtree.Tree
}

// New bulk-loads the network R-tree over g's edges. The tree lives on
// its own in-memory page file; snapping is a build-time operation, so its
// I/O is not charged to query accounting.
func New(g *graph.Graph) (*Snapper, error) {
	if g.NumEdges() == 0 {
		return nil, fmt.Errorf("%w: cannot snap onto a network with no edges", ErrEmptyNetwork)
	}
	entries := make([]rtree.Entry, g.NumEdges())
	for i := 0; i < g.NumEdges(); i++ {
		entries[i] = rtree.Entry{Rect: g.EdgeMBR(graph.EdgeID(i)), Ref: uint64(i)}
	}
	pool := storage.NewBufferPool(storage.NewPageFile(), 4096, nil)
	tree, err := rtree.BulkLoad(pool, entries)
	if err != nil {
		return nil, err
	}
	return &Snapper{g: g, tree: tree}, nil
}

// Snap returns the network position closest to p (Euclidean distance to
// the road segment) and that distance.
func (s *Snapper) Snap(p geo.Point) (graph.Position, float64, error) {
	best, dist, ok := s.tree.Nearest(p, func(e rtree.Entry) float64 {
		d, _ := s.segDist(graph.EdgeID(e.Ref), p)
		return d
	})
	if !ok {
		return graph.Position{}, 0, fmt.Errorf("%w: snap found no edge", ErrEmptyNetwork)
	}
	eid := graph.EdgeID(best.Ref)
	_, off := s.segDist(eid, p)
	return graph.Position{Edge: eid, Offset: off}, dist, nil
}

func (s *Snapper) segDist(e graph.EdgeID, p geo.Point) (dist, offset float64) {
	ed := s.g.Edge(e)
	return geo.PointSegment(p, s.g.Node(ed.N1).Loc, s.g.Node(ed.N2).Loc)
}
