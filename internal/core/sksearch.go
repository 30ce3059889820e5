package core

import (
	"context"
	"math"
	"time"

	"dsks/internal/ccam"
	"dsks/internal/graph"
	"dsks/internal/index"
	"dsks/internal/minheap"
	"dsks/internal/obj"
)

// expansion is the edge-visiting network expansion of Algorithm 3: a
// frontier bounded by DeltaMax settles road nodes in order of network
// distance from the query; an edge's objects are loaded through the object
// index when its first end settles (Algorithm 2) and brought closer when
// the other does. The loader call (AND refs or OR matches) is all that
// tells a boolean stream from an OR one.
type expansion struct {
	f    *frontier
	load func(e graph.EdgeID, into []foundObj) ([]foundObj, error)

	objs   []foundObj                // every loaded object, an edge's objects adjacent
	byEdge map[graph.EdgeID][2]int32 // visited edge -> its [lo, hi) range of objs
	fresh  []int32                   // objects the last step loaded or brought closer
	deltaT float64                   // lower bound on any future settled distance
	stats  SearchStats
	trace  Trace
}

// foundObj is a loaded object with its best-known distance, which is final
// once both ends of its edge have settled or the frontier has passed it.
type foundObj struct {
	ref   index.ObjectRef
	dist  float64
	terms index.TermSet // query terms contained (OR loads only)
}

// loadAll adapts a Loader's AND load to the expansion.
func loadAll(ctx context.Context, loader index.Loader, terms []obj.TermID) func(graph.EdgeID, []foundObj) ([]foundObj, error) {
	return func(e graph.EdgeID, into []foundObj) ([]foundObj, error) {
		refs, err := loader.LoadObjects(ctx, e, terms)
		for _, r := range refs {
			into = append(into, foundObj{ref: r})
		}
		return into, err
	}
}

// loadAny adapts a UnionLoader's OR load to the expansion.
func loadAny(ctx context.Context, loader index.UnionLoader, terms []obj.TermID) func(graph.EdgeID, []foundObj) ([]foundObj, error) {
	return func(e graph.EdgeID, into []foundObj) ([]foundObj, error) {
		matches, err := loader.LoadObjectsAny(ctx, e, terms)
		for _, m := range matches {
			into = append(into, foundObj{ref: m.Ref, terms: m.Terms})
		}
		return into, err
	}
}

// newExpansion anchors the expansion at the two end-nodes of the query's
// edge and loads that edge eagerly: its objects have a direct along-edge
// distance at once, and paths through the end-nodes are applied as the
// ends settle. A context that is already done fails here before any I/O.
func newExpansion(ctx context.Context, net ccam.Network, pos graph.Position, deltaMax float64, load func(graph.EdgeID, []foundObj) ([]foundObj, error)) (*expansion, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	x := &expansion{f: newFrontier(ctx, net), load: load, byEdge: make(map[graph.EdgeID][2]int32)}
	info, wq, err := x.f.start(pos, deltaMax, nil)
	if err != nil {
		return nil, err
	}
	span, err := x.visit(pos.Edge)
	if err != nil {
		return nil, err
	}
	for i := span[0]; i < span[1]; i++ {
		o := &x.objs[i]
		o.dist = math.Abs(offsetCost(info.Weight, info.Length, o.ref.Offset) - wq)
		x.fresh = append(x.fresh, i)
	}
	return x, nil
}

// visit loads edge e's objects, timed into the trace's PostingReads stage.
func (x *expansion) visit(e graph.EdgeID) ([2]int32, error) {
	x.stats.EdgesVisited++
	start := time.Now()
	objs, err := x.load(e, x.objs)
	x.trace.PostingReads += time.Since(start)
	if err != nil {
		return [2]int32{}, mapCtxErr(err)
	}
	span := [2]int32{int32(len(x.objs)), int32(len(objs))}
	x.objs, x.byEdge[e] = objs, span
	return span, nil
}

// step settles one node (one iteration of Algorithm 3's main loop) and
// leaves in fresh the objects it loaded or brought closer; false means
// every node within the radius has settled. The radius is the frontier's
// limit, which SKSearch.Limit may have lowered below labels already queued.
func (x *expansion) step() (bool, error) {
	start, posting := time.Now(), x.trace.PostingReads
	x.fresh = x.fresh[:0]
	if top, ok := x.f.peek(); !ok || top.Val > x.f.limit {
		return false, nil
	}
	node, g, adj, err := x.f.settle()
	if err != nil {
		return false, err
	}
	x.deltaT = g
	x.stats.NodesPopped++
	for _, a := range adj {
		span, seen := x.byEdge[a.Edge]
		if !seen {
			if span, err = x.visit(a.Edge); err != nil {
				return false, err
			}
		}
		for i := span[0]; i < span[1]; i++ {
			o := &x.objs[i]
			// An offset counts from the reference node, the smaller end ID.
			w := offsetCost(a.Weight, a.Length, o.ref.Offset)
			if node > a.Other {
				w = a.Weight - w
			}
			if d := g + w; !seen || d < o.dist {
				o.dist = d
				x.fresh = append(x.fresh, i)
			}
		}
	}
	x.trace.Expansion += time.Since(start) - (x.trace.PostingReads - posting)
	return true, nil
}

// SKSearch is the incremental spatial keyword search of Algorithm 3: it
// drives the expansion and emits the qualifying objects in non-decreasing
// network distance — the arrival order every query family consumes
// (ArrivalSource).
type SKSearch struct {
	x       *expansion
	pending minheap.Heap[int32] // found, not yet emitted: key dist, ID object, Val index in x.objs
	last    int32               // index in x.objs of the object Next returned last; -1 before the first
	done    bool
}

// NewSKSearch prepares an incremental boolean search: the objects
// containing every query term. It performs the first edge load (the
// query's own edge) eagerly. ctx governs the whole lifetime of the search:
// a context that is already done fails here before any I/O, and
// cancellation mid-expansion surfaces from Next as ErrCanceled or
// ErrDeadlineExceeded.
func NewSKSearch(ctx context.Context, net ccam.Network, loader index.Loader, q SKQuery) (*SKSearch, error) {
	return newSKSearch(ctx, net, q, loadAll(ctx, loader, q.Terms))
}

func newSKSearch(ctx context.Context, net ccam.Network, q SKQuery, load func(graph.EdgeID, []foundObj) ([]foundObj, error)) (*SKSearch, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	x, err := newExpansion(ctx, net, q.Pos, q.DeltaMax, load)
	if err != nil {
		return nil, err
	}
	return &SKSearch{x: x, last: -1}, nil
}

// offsetCost converts a geometric offset from the reference node into a
// traversal cost, per w(n1, p) = w(n1, n2) · d(n1, p)/d(n1, n2).
func offsetCost(weight, length, offset float64) float64 {
	if length <= 0 {
		return 0
	}
	if offset < 0 {
		offset = 0
	} else if offset > length {
		offset = length
	}
	return weight * offset / length
}

// Next returns the next candidate in non-decreasing network distance. The
// boolean is false when the search is exhausted (all qualifying objects
// within the radius have been emitted).
func (s *SKSearch) Next() (Candidate, bool, error) {
	for {
		// Queue what the last step touched, under its new distance.
		for _, i := range s.x.fresh {
			o := &s.x.objs[i]
			s.pending.Push(o.dist, int32(o.ref.ID), i)
		}
		s.x.fresh = s.x.fresh[:0]
		// Emit a pending object once no future relaxation can undercut it:
		// its distance is within the expansion frontier deltaT, or the
		// expansion is finished.
		for s.pending.Len() > 0 {
			top := s.pending.Min()
			o := &s.x.objs[top.Val]
			if top.Key != o.dist {
				s.pending.Pop() // queued under an earlier, longer distance
				continue
			}
			if o.dist > s.x.f.limit || (!s.done && o.dist > s.x.deltaT) {
				break
			}
			s.pending.Pop()
			s.x.stats.Candidates++
			s.last = top.Val
			return Candidate{Ref: o.ref, Dist: o.dist}, true, nil
		}
		if s.done {
			return Candidate{}, false, nil
		}
		more, err := s.x.step()
		if err != nil {
			return Candidate{}, false, err
		}
		s.done = !more
	}
}

// Terms reports which query terms the candidate Next returned last
// contains, as positions in the query's terms. It is the empty set for a
// boolean search, whose candidates contain them all.
func (s *SKSearch) Terms() index.TermSet {
	if s.last < 0 {
		return index.TermSet{}
	}
	return s.x.objs[s.last].terms
}

// Limit lowers the search radius to d: no candidate farther than d is
// emitted, and the expansion ends once its frontier passes d. A radius
// only shrinks.
func (s *SKSearch) Limit(d float64) {
	s.x.f.limit = min(s.x.f.limit, d)
}

// All drains the search, returning every candidate in distance order (the
// non-incremental use of Algorithm 3 that SEQ relies on).
func (s *SKSearch) All() ([]Candidate, error) { return takeArrivals(s, 0) }

// Stats returns the traversal counters so far.
func (s *SKSearch) Stats() SearchStats { return s.x.stats }

// Trace returns the stage timings accumulated so far (Total is left for
// the caller, which owns the end-to-end clock).
func (s *SKSearch) Trace() Trace { return s.x.trace }

// Stop abandons the expansion (Algorithm 6's early termination).
func (s *SKSearch) Stop() {
	s.done = true
	s.pending.Reset()
	s.x.fresh = nil
}
