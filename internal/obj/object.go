// Package obj defines spatio-textual objects — points on road-network edges
// described by a set of keywords — together with the vocabulary (term
// dictionary) and collection helpers used by the object indexes.
package obj

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"dsks/internal/graph"
)

// ID identifies a spatio-textual object.
type ID int32

// TermID identifies a keyword in a Vocabulary.
type TermID int32

// Object is a spatio-textual object: a position on a road-network edge plus
// a set of keywords. Terms is always sorted and duplicate-free (enforced by
// NormalizeTerms / Collection.Add).
type Object struct {
	ID    ID
	Pos   graph.Position
	Terms []TermID
}

// HasTerm reports whether the object contains t (binary search over the
// sorted term list).
func (o *Object) HasTerm(t TermID) bool {
	i := sort.Search(len(o.Terms), func(i int) bool { return o.Terms[i] >= t })
	return i < len(o.Terms) && o.Terms[i] == t
}

// HasAllTerms reports whether the object contains every term of the sorted
// query term list ts (the boolean AND semantics of the paper's SK query).
func (o *Object) HasAllTerms(ts []TermID) bool {
	i, j := 0, 0
	for i < len(ts) && j < len(o.Terms) {
		switch {
		case o.Terms[j] < ts[i]:
			j++
		case o.Terms[j] == ts[i]:
			i++
			j++
		default:
			return false
		}
	}
	return i == len(ts)
}

// NormalizeTerms sorts ts and removes duplicates in place, returning the
// normalized slice.
func NormalizeTerms(ts []TermID) []TermID {
	if len(ts) < 2 {
		return ts
	}
	slices.Sort(ts)
	return slices.Compact(ts)
}

// Collection holds the full object set of a dataset, with per-edge grouping
// available on demand. Objects on the same edge are ordered by their offset
// along the edge (their "visiting order" in the paper's partitioning).
// Removed objects leave a tombstone: their ID stays allocated but they no
// longer appear in OnEdge listings or term frequencies.
type Collection struct {
	objects []Object
	removed []bool
	byEdge  map[graph.EdgeID][]ID
	sorted  bool
	live    int
}

// NewCollection returns an empty collection.
func NewCollection() *Collection {
	return &Collection{byEdge: make(map[graph.EdgeID][]ID)}
}

// Add appends an object with the given position and terms; the term slice
// is normalized (sorted, deduplicated) and retained. It returns the new
// object's ID.
func (c *Collection) Add(pos graph.Position, terms []TermID) ID {
	id := ID(len(c.objects))
	c.objects = append(c.objects, Object{ID: id, Pos: pos, Terms: NormalizeTerms(terms)})
	c.removed = append(c.removed, false)
	c.byEdge[pos.Edge] = append(c.byEdge[pos.Edge], id)
	c.sorted = false
	c.live++
	return id
}

// Remove tombstones the object: its ID remains allocated but it disappears
// from OnEdge listings and term frequencies. Removing an unknown or
// already-removed ID is an error.
func (c *Collection) Remove(id ID) error {
	if id < 0 || int(id) >= len(c.objects) {
		return fmt.Errorf("obj: unknown object %d", id)
	}
	if c.removed[id] {
		return fmt.Errorf("obj: object %d already removed", id)
	}
	c.removed[id] = true
	c.live--
	e := c.objects[id].Pos.Edge
	lst := c.byEdge[e]
	for i, x := range lst {
		if x == id {
			c.byEdge[e] = append(lst[:i], lst[i+1:]...)
			break
		}
	}
	if len(c.byEdge[e]) == 0 {
		delete(c.byEdge, e)
	}
	return nil
}

// Grow reserves room for n IDs in all, so a collection built up to a
// known length allocates its ID space once.
func (c *Collection) Grow(n int) {
	c.objects = slices.Grow(c.objects, max(0, n-len(c.objects)))
	c.removed = slices.Grow(c.removed, max(0, n-len(c.removed)))
}

// Pad extends the ID space to n IDs: every new ID is a tombstone that
// never held an object, so OnEdge listings and term frequencies do not
// see it. A collection already n IDs long is left as it is.
func (c *Collection) Pad(n int) {
	for id := len(c.objects); id < n; id++ {
		c.objects = append(c.objects, Object{ID: ID(id)})
		c.removed = append(c.removed, true)
	}
}

// Removed reports whether id has been tombstoned.
func (c *Collection) Removed(id ID) bool {
	return id >= 0 && int(id) < len(c.objects) && c.removed[id]
}

// Tombstones returns the removed IDs in ascending order — together with
// Len, the full allocation state of the ID space, which snapshots record
// so that replayed log records address the same IDs.
func (c *Collection) Tombstones() []ID {
	var ids []ID
	for id, dead := range c.removed {
		if dead {
			ids = append(ids, ID(id))
		}
	}
	return ids
}

// Len returns the number of allocated object IDs (including tombstones;
// use Live for the current object count).
func (c *Collection) Len() int { return len(c.objects) }

// Live returns the number of objects that have not been removed.
func (c *Collection) Live() int { return c.live }

// Get returns the object with the given ID.
func (c *Collection) Get(id ID) *Object {
	if id < 0 || int(id) >= len(c.objects) {
		panic(fmt.Sprintf("obj: unknown object %d", id))
	}
	return &c.objects[id]
}

// OnEdge returns the IDs of the objects lying on edge e, ordered by offset
// from the edge's reference node. The returned slice must not be modified.
func (c *Collection) OnEdge(e graph.EdgeID) []ID {
	c.ensureSorted()
	return c.byEdge[e]
}

// Edges returns all edges that carry at least one object, in ascending ID
// order.
func (c *Collection) Edges() []graph.EdgeID {
	out := make([]graph.EdgeID, 0, len(c.byEdge))
	for e := range c.byEdge {
		out = append(out, e)
	}
	slices.Sort(out)
	return out
}

// TermFrequencies returns the number of objects containing each term, for a
// vocabulary of size n.
func (c *Collection) TermFrequencies(n int) []int64 {
	freq := make([]int64, n)
	for i := range c.objects {
		if c.removed[i] {
			continue
		}
		for _, t := range c.objects[i].Terms {
			if int(t) < n {
				freq[t]++
			}
		}
	}
	return freq
}

// AvgTermsPerObject returns the mean keyword count per live object.
func (c *Collection) AvgTermsPerObject() float64 {
	if c.live == 0 {
		return 0
	}
	total := 0
	for i := range c.objects {
		if !c.removed[i] {
			total += len(c.objects[i].Terms)
		}
	}
	return float64(total) / float64(c.live)
}

func (c *Collection) ensureSorted() {
	if c.sorted {
		return
	}
	for _, ids := range c.byEdge {
		slices.SortFunc(ids, func(a, b ID) int {
			return cmp.Or(cmp.Compare(c.objects[a].Pos.Offset, c.objects[b].Pos.Offset), cmp.Compare(a, b))
		})
	}
	c.sorted = true
}
