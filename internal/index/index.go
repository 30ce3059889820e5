// Package index defines the interface between the spatial keyword search
// algorithm (which drives the network expansion) and the spatio-textual
// object indexes (which load the objects lying on an edge that satisfy the
// keyword constraint). The four index structures the paper evaluates — IR,
// IF, SIF and SIF-P — all implement Loader.
package index

import (
	"context"
	"math/bits"

	"dsks/internal/graph"
	"dsks/internal/obj"
)

// ObjectRef is a reference to an indexed object as materialized from a
// posting list: its ID plus its position on the road network.
type ObjectRef struct {
	ID     obj.ID
	Edge   graph.EdgeID
	Offset float64 // geometric distance from the edge's reference node
}

// Pos returns the object's network position.
func (r ObjectRef) Pos() graph.Position { return graph.Position{Edge: r.Edge, Offset: r.Offset} }

// Loader loads the objects lying on an edge that contain all query terms
// (the paper's Algorithm 2). terms must be sorted and duplicate-free.
// Implementations report their page reads through their buffer pool's
// IOStats, and honor ctx: a done context aborts the load (wrapping
// ctx.Err()) before further I/O is charged.
type Loader interface {
	LoadObjects(ctx context.Context, e graph.EdgeID, terms []obj.TermID) ([]ObjectRef, error)
}

// UnionLoader additionally loads with OR semantics: the objects on an edge
// containing at least one of the query terms, together with which ones they
// contain. The ranked and collective queries are built on it.
type UnionLoader interface {
	Loader
	// LoadObjectsAny returns, for each object on e containing at least one
	// term, the set of terms it contains, as positions in terms.
	LoadObjectsAny(ctx context.Context, e graph.EdgeID, terms []obj.TermID) ([]ObjectMatch, error)
}

// ObjectMatch is a union-load result: the object plus the query terms it
// contains.
type ObjectMatch struct {
	Ref   ObjectRef
	Terms TermSet // positions in the load's term list (never empty)
}

// TermSet is a set of positions in a query's term list: position i stands
// for terms[i]. Lists of up to 64 terms fit in one word and cost no
// allocation; longer lists spill into further words, so there is no cap.
// The zero value is the empty set.
type TermSet struct {
	low  uint64   // positions 0-63
	high []uint64 // positions 64 and up
}

// Add puts position i into the set.
func (s *TermSet) Add(i int) {
	if i < 64 {
		s.low |= 1 << uint(i)
		return
	}
	w := i/64 - 1
	for len(s.high) <= w {
		s.high = append(s.high, 0)
	}
	s.high[w] |= 1 << uint(i%64)
}

// Has reports whether position i is in the set.
func (s TermSet) Has(i int) bool {
	if i < 64 {
		return s.low&(1<<uint(i)) != 0
	}
	w := i/64 - 1
	return w < len(s.high) && s.high[w]&(1<<uint(i%64)) != 0
}

// Len is the number of positions in the set.
func (s TermSet) Len() int {
	n := bits.OnesCount64(s.low)
	for _, w := range s.high {
		n += bits.OnesCount64(w)
	}
	return n
}

// Sizer is implemented by indexes that can report their on-disk footprint.
type Sizer interface {
	SizeBytes() int64
}
