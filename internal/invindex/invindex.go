// Package invindex implements the inverted indexing technique of Section
// 3.1 (the paper's IF structure): for each keyword t, the edges carrying an
// object with t are organized in a disk-resident B+-tree whose key is the
// Z-ordering code of the edge's center point, and each tree entry points at
// the posting list holding the objects (with their offset from the edge's
// reference node).
//
// Posting lists are packed contiguously into a heap of 4KB pages — small
// lists share pages, long lists span consecutive pages — so the on-disk
// footprint matches a real inverted file rather than a page per list.
//
// The package also exposes the per-term posting statistics the signature
// layer (package sig) builds on.
//
// Index state is split in two for the MVCC query path: Roots holds the
// versioned root set (B+-tree meta, heap write cursor, per-term counts) and
// every operation exists in a form parameterized over a page source — a
// storage.WriteBatch for copy-on-write mutation (InsertObjectAt /
// RemoveObjectAt against a private *Roots), a pinned storage.PageView for
// latch-free reads (Reader). The Index methods bind the live Roots to the
// buffer pool for the build path and single-threaded callers.
package invindex

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync/atomic"

	"dsks/internal/btree"
	"dsks/internal/geo"
	"dsks/internal/graph"
	"dsks/internal/index"
	"dsks/internal/obj"
	"dsks/internal/storage"
)

// Posting is one record of an inverted list: an object containing the term,
// on the keyed edge.
type Posting struct {
	Object obj.ID
	Edge   graph.EdgeID
	Offset float64
}

// Posting heap layout: 16-byte records (object uint32, edge uint32, offset
// float64) packed into pages; a record never crosses a page border (the
// tail of a page shorter than one record is padding). A list is addressed
// by (start page, start offset, count) packed into the B+-tree value.
const postingSize = 16

// packListRef encodes a list address into a B+-tree value: page (32 bits),
// in-page offset (12 bits), record count (20 bits).
func packListRef(page storage.PageID, off, count int) uint64 {
	return uint64(page)<<32 | uint64(off)<<20 | uint64(count)
}

func unpackListRef(v uint64) (page storage.PageID, off, count int) {
	return storage.PageID(v >> 32), int(v >> 20 & 0xfff), int(v & 0xfffff)
}

// maxListRecords caps a single list at the 20-bit count field.
const maxListRecords = 1<<20 - 1

// edgeKey composes the B+-tree key of (term, edge): the term in the high
// bits, the Z-order code of the edge's center in the low bits. Two edges of
// a term may share a Z-cell; their postings are merged under one key and
// disambiguated by the Edge field of each posting, preserving the paper's
// "key of an edge is the Z-ordering code of its center point" clustering.
func edgeKey(t obj.TermID, zcode uint64) uint64 {
	return uint64(t)<<42 | (zcode & ((1 << 42) - 1))
}

// Roots is the versioned root state of the inverted file: everything a
// reader needs to resolve queries against a fixed snapshot and a mutator
// needs to extend the index. A published Roots value must never be mutated;
// mutators work on a copy (InsertObjectAt / RemoveObjectAt clone the
// TermPostings slice on first write, so a shallow struct copy is a safe
// starting point).
type Roots struct {
	Tree btree.Meta

	// TermPostings[t] counts term t's postings; the signature layer skips
	// terms whose inverted file fits into one page.
	TermPostings []int32

	// Heap write cursor: lists are appended at the tail.
	CurPage storage.PageID
	CurOff  int

	// PostingPages counts heap pages (footprint accounting).
	PostingPages int
}

// Index is the IF structure: one logical inverted file per keyword, all
// sharing a single B+-tree keyed by (term, edge-Z-code) and a packed
// posting heap. All reads go through the buffer pool, so page fetches are
// counted as disk accesses.
type Index struct {
	pool  *storage.BufferPool
	roots Roots

	// postingsRead counts every posting record decoded at query time (the
	// C2/C3 of the paper's expected-load analysis). Shared across all
	// readers of this index regardless of which snapshot they pin.
	postingsRead atomic.Int64
}

// Build constructs the inverted index for all objects in c over graph g.
// vocabSize is the vocabulary size |V|.
func Build(g *graph.Graph, c *obj.Collection, vocabSize int, pool *storage.BufferPool) (*Index, error) {
	idx := &Index{pool: pool}
	idx.roots.TermPostings = make([]int32, vocabSize)

	// Group postings by (term, zcode) key.
	type listEntry struct {
		key      uint64
		term     obj.TermID
		postings []Posting
	}
	byKey := make(map[uint64]*listEntry)
	for _, e := range c.Edges() {
		z := geo.ZCode(g.EdgeCenter(e))
		for _, id := range c.OnEdge(e) {
			o := c.Get(id)
			for _, t := range o.Terms {
				if int(t) >= vocabSize {
					return nil, fmt.Errorf("invindex: term %d outside vocabulary of %d", t, vocabSize)
				}
				k := edgeKey(t, z)
				le := byKey[k]
				if le == nil {
					le = &listEntry{key: k, term: t}
					byKey[k] = le
				}
				le.postings = append(le.postings, Posting{Object: id, Edge: e, Offset: o.Pos.Offset})
				idx.roots.TermPostings[t]++
			}
		}
	}
	keys := make([]*listEntry, 0, len(byKey))
	for _, le := range byKey {
		keys = append(keys, le)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].key < keys[j].key })

	// Write the packed posting heap and collect B+-tree entries.
	entries := make([]btree.Entry, 0, len(keys))
	for _, le := range keys {
		ref, err := writeListAt(pool, &idx.roots, le.postings)
		if err != nil {
			return nil, err
		}
		entries = append(entries, btree.Entry{Key: le.key, Value: ref})
	}
	tree, err := btree.BulkLoad(pool, entries)
	if err != nil {
		return nil, err
	}
	idx.roots.Tree = tree.Meta()
	if err := pool.Flush(); err != nil {
		return nil, err
	}
	return idx, nil
}

// writeListAt appends postings (sorted by edge then offset) to the heap
// through p and returns the packed list reference, advancing r's write
// cursor.
func writeListAt(p storage.Pager, r *Roots, ps []Posting) (uint64, error) {
	if len(ps) > maxListRecords {
		return 0, fmt.Errorf("invindex: posting list of %d records exceeds the %d cap", len(ps), maxListRecords)
	}
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].Edge != ps[j].Edge {
			return ps[i].Edge < ps[j].Edge
		}
		if ps[i].Offset != ps[j].Offset {
			return ps[i].Offset < ps[j].Offset
		}
		return ps[i].Object < ps[j].Object
	})
	// A list that does not fit in the current page's remainder starts on a
	// fresh page, so that multi-page lists always occupy consecutively
	// allocated pages — the invariant readListAt's pageID++ walk relies on.
	// (During the initial build heap pages are consecutive anyway; after
	// the build, B+-tree pages interleave in the file.)
	remainder := (storage.PageSize - r.CurOff) / postingSize
	if r.CurPage == storage.InvalidPageID || len(ps) > remainder {
		if err := newHeapPageAt(p, r); err != nil {
			return 0, err
		}
	}
	startPage, startOff := r.CurPage, r.CurOff
	for _, rec := range ps {
		if r.CurOff+postingSize > storage.PageSize {
			if err := newHeapPageAt(p, r); err != nil {
				return 0, err
			}
		}
		page, err := p.Get(r.CurPage)
		if err != nil {
			return 0, err
		}
		page.PutUint32(r.CurOff, uint32(rec.Object))
		page.PutUint32(r.CurOff+4, uint32(rec.Edge))
		page.PutFloat64(r.CurOff+8, rec.Offset)
		p.MarkDirty(r.CurPage)
		r.CurOff += postingSize
	}
	return packListRef(startPage, startOff, len(ps)), nil
}

func newHeapPageAt(p storage.Pager, r *Roots) error {
	page, err := p.Allocate()
	if err != nil {
		return err
	}
	r.CurPage = page.ID()
	r.CurOff = 0
	r.PostingPages++
	return nil
}

// readListAt loads the postings of a packed list that lie on edge e (the
// list may also hold postings of Z-cell-colliding edges). Consecutive heap
// pages are fetched through pr; decoded records are charged to counter.
func readListAt(ctx context.Context, pr storage.PageReader, counter *atomic.Int64, ref uint64, e graph.EdgeID) ([]Posting, error) {
	pageID, off, count := unpackListRef(ref)
	counter.Add(int64(count))
	out := make([]Posting, 0, count)
	for i := 0; i < count; {
		page, err := pr.GetCtx(ctx, pageID)
		if err != nil {
			return nil, err
		}
		for ; i < count && off+postingSize <= storage.PageSize; i++ {
			p := Posting{
				Object: obj.ID(page.Uint32(off)),
				Edge:   graph.EdgeID(page.Uint32(off + 4)),
				Offset: page.Float64(off + 8),
			}
			if p.Edge == e {
				out = append(out, p)
			}
			off += postingSize
		}
		pageID++
		off = 0
	}
	return out, nil
}

// readListAllAt loads every posting of a packed list (no edge filter).
func readListAllAt(pr storage.PageReader, ref uint64) ([]Posting, error) {
	pageID, off, count := unpackListRef(ref)
	out := make([]Posting, 0, count)
	for i := 0; i < count; {
		page, err := pr.Get(pageID)
		if err != nil {
			return nil, err
		}
		for ; i < count && off+postingSize <= storage.PageSize; i++ {
			out = append(out, Posting{
				Object: obj.ID(page.Uint32(off)),
				Edge:   graph.EdgeID(page.Uint32(off + 4)),
				Offset: page.Float64(off + 8),
			})
			off += postingSize
		}
		pageID++
		off = 0
	}
	return out, nil
}

// InsertObjectAt adds a new object's postings through p, updating *r in
// place. r must be a private copy of a published Roots (the TermPostings
// slice is cloned internally before the first write, so a shallow struct
// copy suffices). Existing lists are rewritten at the end of the posting
// heap (the abandoned space is the usual inverted-file amplification of
// in-place updates); the B+-tree entry is repointed or created.
func (idx *Index) InsertObjectAt(p storage.Pager, r *Roots, zcode uint64, id obj.ID, e graph.EdgeID, offset float64, terms []obj.TermID) error {
	r.TermPostings = append([]int32(nil), r.TermPostings...)
	for _, t := range terms {
		if int(t) >= len(r.TermPostings) {
			return fmt.Errorf("invindex: term %d outside vocabulary of %d", t, len(r.TermPostings))
		}
		key := edgeKey(t, zcode)
		rec := Posting{Object: id, Edge: e, Offset: offset}
		old, err := btree.GetAt(context.Background(), p, r.Tree, key)
		if errors.Is(err, btree.ErrNotFound) {
			ref, err := writeListAt(p, r, []Posting{rec})
			if err != nil {
				return err
			}
			if err := btree.InsertAt(p, &r.Tree, key, ref); err != nil {
				return err
			}
		} else if err != nil {
			return err
		} else {
			ps, err := readListAllAt(p, old)
			if err != nil {
				return err
			}
			ps = append(ps, rec)
			ref, err := writeListAt(p, r, ps)
			if err != nil {
				return err
			}
			if err := btree.UpdateAt(p, r.Tree, key, ref); err != nil {
				return err
			}
		}
		r.TermPostings[t]++
	}
	return nil
}

// RemoveObjectAt deletes an object's postings through p, updating *r in
// place (same contract as InsertObjectAt): each affected list is rewritten
// at the heap tail without the object's record. Removing an object absent
// from a term's list is ignored for that term.
func (idx *Index) RemoveObjectAt(p storage.Pager, r *Roots, zcode uint64, id obj.ID, terms []obj.TermID) error {
	r.TermPostings = append([]int32(nil), r.TermPostings...)
	for _, t := range terms {
		if int(t) >= len(r.TermPostings) {
			return fmt.Errorf("invindex: term %d outside vocabulary of %d", t, len(r.TermPostings))
		}
		key := edgeKey(t, zcode)
		old, err := btree.GetAt(context.Background(), p, r.Tree, key)
		if errors.Is(err, btree.ErrNotFound) {
			continue
		}
		if err != nil {
			return err
		}
		ps, err := readListAllAt(p, old)
		if err != nil {
			return err
		}
		kept := ps[:0]
		removed := false
		for _, rec := range ps {
			if rec.Object == id {
				removed = true
				continue
			}
			kept = append(kept, rec)
		}
		if !removed {
			continue
		}
		if len(kept) == 0 {
			// Keep the key with an empty list reference (count 0): reads
			// of it return nothing and never touch a page.
			if err := btree.UpdateAt(p, r.Tree, key, packListRef(storage.InvalidPageID, 0, 0)); err != nil {
				return err
			}
		} else {
			ref, err := writeListAt(p, r, kept)
			if err != nil {
				return err
			}
			if err := btree.UpdateAt(p, r.Tree, key, ref); err != nil {
				return err
			}
		}
		r.TermPostings[t]--
	}
	return nil
}

// TermPostings returns term t's postings on edge e (the R_t of Algorithm
// 2), loading them from disk. zcode must be the Z-code of e's center.
func (idx *Index) TermPostings(t obj.TermID, e graph.EdgeID, zcode uint64) ([]Posting, error) {
	return idx.TermPostingsCtx(context.Background(), t, e, zcode)
}

// TermPostingsCtx is TermPostings with cancellation: a done ctx aborts the
// B+-tree descent or the posting-heap walk before the next page read.
func (idx *Index) TermPostingsCtx(ctx context.Context, t obj.TermID, e graph.EdgeID, zcode uint64) ([]Posting, error) {
	return idx.termPostingsAt(ctx, idx.pool, &idx.roots, t, e, zcode)
}

func (idx *Index) termPostingsAt(ctx context.Context, pr storage.PageReader, r *Roots, t obj.TermID, e graph.EdgeID, zcode uint64) ([]Posting, error) {
	ref, err := btree.GetAt(ctx, pr, r.Tree, edgeKey(t, zcode))
	if errors.Is(err, btree.ErrNotFound) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	return readListAt(ctx, pr, &idx.postingsRead, ref, e)
}

// EdgeZCoder supplies the Z-code of an edge's center (implemented by the
// road network graph); it is injected so that query processing does not
// depend on the full in-memory graph.
type EdgeZCoder interface {
	EdgeZCode(e graph.EdgeID) uint64
}

// GraphZCoder adapts a *graph.Graph to EdgeZCoder.
type GraphZCoder struct{ G *graph.Graph }

// EdgeZCode implements EdgeZCoder.
func (z GraphZCoder) EdgeZCode(e graph.EdgeID) uint64 { return geo.ZCode(z.G.EdgeCenter(e)) }

// Loader is the query-time handle of the IF index: it resolves edge
// Z-codes through the coder and intersects the per-term posting lists
// with AND semantics (Algorithm 2 without the signature test). Its methods
// read the live roots through the buffer pool; At binds the same logic to
// a pinned page view and a published Roots snapshot for latch-free reads.
type Loader struct {
	Idx   *Index
	Coder EdgeZCoder
	// SelectivityOrder probes the rarest query term first so empty
	// intersections short-circuit after the cheapest list read. Off by
	// default: the paper's baselines probe in query order, and enabling
	// it narrows the IF-vs-SIF gap the evaluation reproduces (see the
	// ablation-selectivity experiment).
	SelectivityOrder bool
}

// At returns a Reader running this loader's query logic against the page
// source pr and the root snapshot r.
func (l *Loader) At(pr storage.PageReader, r *Roots) Reader {
	return Reader{Idx: l.Idx, PR: pr, Roots: r, Coder: l.Coder, SelectivityOrder: l.SelectivityOrder}
}

// LoadObjects implements index.Loader against the live roots.
func (l *Loader) LoadObjects(ctx context.Context, e graph.EdgeID, terms []obj.TermID) ([]index.ObjectRef, error) {
	return l.At(l.Idx.pool, &l.Idx.roots).LoadObjects(ctx, e, terms)
}

// LoadObjectsAny implements index.UnionLoader against the live roots.
func (l *Loader) LoadObjectsAny(ctx context.Context, e graph.EdgeID, terms []obj.TermID) ([]index.ObjectMatch, error) {
	return l.At(l.Idx.pool, &l.Idx.roots).LoadObjectsAny(ctx, e, terms)
}

// Reader is a Loader bound to an explicit page source and root snapshot:
// with a page source over a pinned storage.PageView and a published Roots
// it answers queries latch-free at one LSN; with the buffer pool and the
// live roots it is the legacy read path. It is a small value made per
// query (the engine binds one to the query's storage.PageMemo), not a
// long-lived handle.
type Reader struct {
	Idx              *Index
	PR               storage.PageReader
	Roots            *Roots
	Coder            EdgeZCoder
	SelectivityOrder bool
}

// TermPostingsCtx returns term t's postings on edge e at this reader's
// snapshot.
func (rd Reader) TermPostingsCtx(ctx context.Context, t obj.TermID, e graph.EdgeID, zcode uint64) ([]Posting, error) {
	return rd.Idx.termPostingsAt(ctx, rd.PR, rd.Roots, t, e, zcode)
}

func byObject(a, b Posting) int { return cmp.Compare(a.Object, b.Object) }

// LoadObjects implements index.Loader: it loads R_t for every query term
// and returns the intersection (rarest-first when SelectivityOrder is on).
// The lists of one edge hold a handful of postings, so the intersection is
// a merge of object-sorted slices kept in the first term's slice, not a
// map per term.
func (rd Reader) LoadObjects(ctx context.Context, e graph.EdgeID, terms []obj.TermID) ([]index.ObjectRef, error) {
	if len(terms) == 0 {
		return nil, nil
	}
	if rd.SelectivityOrder {
		terms = bySelectivity(rd.Roots.TermPostings, terms)
	}
	z := rd.Coder.EdgeZCode(e)
	var inter []Posting
	for i, t := range terms {
		ps, err := rd.TermPostingsCtx(ctx, t, e, z)
		if err != nil {
			return nil, err
		}
		if len(ps) == 0 {
			return nil, nil
		}
		slices.SortFunc(ps, byObject)
		if i == 0 {
			inter = ps
			continue
		}
		kept, j := inter[:0], 0
		for _, p := range inter {
			for j < len(ps) && ps[j].Object < p.Object {
				j++
			}
			if j < len(ps) && ps[j].Object == p.Object {
				kept = append(kept, p)
			}
		}
		if inter = kept; len(inter) == 0 {
			return nil, nil
		}
	}
	out := make([]index.ObjectRef, len(inter))
	for i, p := range inter {
		out[i] = index.ObjectRef{ID: p.Object, Edge: p.Edge, Offset: p.Offset}
	}
	return out, nil
}

// LoadObjectsAny implements index.UnionLoader: objects on e containing at
// least one query term, with their distinct-term match counts (the OR
// semantics of the ranked spatial keyword query).
func (rd Reader) LoadObjectsAny(ctx context.Context, e graph.EdgeID, terms []obj.TermID) ([]index.ObjectMatch, error) {
	if len(terms) == 0 {
		return nil, nil
	}
	z := rd.Coder.EdgeZCode(e)
	found := make(map[obj.ID]*index.ObjectMatch)
	for _, t := range terms {
		ps, err := rd.TermPostingsCtx(ctx, t, e, z)
		if err != nil {
			return nil, err
		}
		for _, p := range ps {
			m := found[p.Object]
			if m == nil {
				m = &index.ObjectMatch{Ref: index.ObjectRef{ID: p.Object, Edge: p.Edge, Offset: p.Offset}}
				found[p.Object] = m
			}
			m.Matched++
		}
	}
	out := make([]index.ObjectMatch, 0, len(found))
	for _, m := range found {
		out = append(out, *m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Ref.ID < out[j].Ref.ID })
	return out, nil
}

// PostingsRead returns how many posting records queries have decoded.
func (idx *Index) PostingsRead() int64 { return idx.postingsRead.Load() }

// ResetPostingsRead zeroes the posting-read counter.
func (idx *Index) ResetPostingsRead() { idx.postingsRead.Store(0) }

// bySelectivity returns the terms ordered by ascending global posting
// count (rarest first); the input is not modified.
func bySelectivity(termPostings []int32, terms []obj.TermID) []obj.TermID {
	out := append([]obj.TermID(nil), terms...)
	sort.SliceStable(out, func(i, j int) bool {
		return termPostings[out[i]] < termPostings[out[j]]
	})
	return out
}

// recordsPerPage is the heap packing density.
const recordsPerPage = storage.PageSize / postingSize

// ListPages returns the approximate number of heap pages term t's inverted
// file occupies (its postings are packed at recordsPerPage density); the
// signature layer skips terms whose file fits in a single page.
func (idx *Index) ListPages(t obj.TermID) int {
	n := int(idx.roots.TermPostings[t])
	if n == 0 {
		return 0
	}
	return (n + recordsPerPage - 1) / recordsPerPage
}

// SizeBytes returns the on-disk footprint (posting heap + B+-tree).
func (idx *Index) SizeBytes() int64 {
	return int64(idx.roots.PostingPages)*storage.PageSize + idx.roots.Tree.SizeBytes()
}

// Pool returns the index's buffer pool.
func (idx *Index) Pool() *storage.BufferPool { return idx.pool }

// Roots returns a copy of the live root set — the starting point for a
// copy-on-write mutation or a published snapshot for readers. The embedded
// TermPostings slice is shared until the next InsertObjectAt/RemoveObjectAt
// clones it, which is safe because published slices are never mutated.
func (idx *Index) Roots() Roots { return idx.roots }

// CurrentRoots returns a pointer to the as-built root set, which the
// unversioned loaders read.
func (idx *Index) CurrentRoots() *Roots { return &idx.roots }

// Tree exposes the underlying B+-tree (for inspection in tests).
func (idx *Index) Tree() *btree.Tree { return btree.Open(idx.pool, idx.roots.Tree) }
