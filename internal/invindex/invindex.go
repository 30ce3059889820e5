// Package invindex implements the inverted indexing technique of Section
// 3.1 (the paper's IF structure): for each keyword t, the edges carrying an
// object with t are organized in a disk-resident B+-tree, and each tree
// entry holds the posting list of the objects on one edge (with their
// offset from the edge's reference node).
//
// The paper keys an edge by the Z-code of its center point. Here edge e's
// key under term t is t<<42 | rank(e), e's position in (CCAM region,
// Z-code of the center, edge ID) order, where e's region is the lower CCAM
// page of its end nodes (ccam.GrowPages): the lists an expansion probes
// lie on few leaves as its adjacency lists lie on few pages, and within a
// region the paper's Z-order keeps nearby edges together. A key names
// one edge, so a record need not say which.
//
// The paper's entry points at its list; here the entry is the list. The
// tree is clustered (package btree stores variable-length values in its
// leaves) and its leaf directory is held in memory, so a probe reads one
// page, the leaf that holds the key's postings: not a descent through
// inner pages, nor a hop to a list that is 12 to 48 bytes long. Only a
// list too long to share a leaf (more than MaxInlineRecords postings)
// lives outside the tree, in an overflow heap of 4KB pages where long
// lists span consecutive pages, and the entry holds its address.
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
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync/atomic"

	"dsks/internal/btree"
	"dsks/internal/ccam"
	"dsks/internal/geo"
	"dsks/internal/graph"
	"dsks/internal/index"
	"dsks/internal/obj"
	"dsks/internal/storage"
)

// Posting is one record of an inverted list: an object containing the term,
// on the keyed edge. The edge is not stored; a decoded posting carries the
// edge it was probed for.
type Posting struct {
	Object obj.ID
	Edge   graph.EdgeID
	Offset float64
}

// A posting is a 12-byte record (object uint32, offset float64), in a
// leaf and in the overflow heap alike. A list holds the postings of one
// edge, sorted by (offset, object).
//
// The B+-tree value of a key is its list: the records back to back, none
// for a key whose objects were all removed. A list of more than
// MaxInlineRecords records, a quarter of a leaf, is written to the
// overflow heap instead and the value is its overflowRefSize-byte
// address, which no whole number of records is long.
const (
	postingSize     = 12
	overflowRefSize = 8
)

// MaxInlineRecords is the longest posting list that lives in its B+-tree
// leaf: what fits the largest value the tree takes, which is sized so that
// four entries share a leaf. It follows from storage.PageSize alone.
const MaxInlineRecords = btree.MaxValueSize / postingSize

// isOverflowRef tells the address of an overflow list from a list.
func isOverflowRef(v []byte) bool { return len(v) == overflowRefSize }

// appendPostings decodes the records packed in b onto out as postings on
// edge e, the edge of their key.
func appendPostings(out []Posting, b []byte, e graph.EdgeID) []Posting {
	for ; len(b) >= postingSize; b = b[postingSize:] {
		out = append(out, Posting{obj.ID(binary.LittleEndian.Uint32(b)), e, math.Float64frombits(binary.LittleEndian.Uint64(b[4:]))})
	}
	return out
}

// putPosting packs one record into b.
func putPosting(b []byte, id obj.ID, offset float64) {
	binary.LittleEndian.PutUint32(b, uint32(id))
	binary.LittleEndian.PutUint64(b[4:], math.Float64bits(offset))
}

// An overflow list is addressed by (start page, start offset, count); a
// record never crosses a page border (the tail of a page shorter than one
// record is padding).

// packListRef encodes an overflow address: page (32 bits), in-page offset
// (12 bits), record count (20 bits).
func packListRef(page storage.PageID, off, count int) uint64 {
	return uint64(page)<<32 | uint64(off)<<20 | uint64(count)
}

func unpackListRef(v uint64) (page storage.PageID, off, count int) {
	return storage.PageID(v >> 32), int(v >> 20 & 0xfff), int(v & 0xfffff)
}

// maxListRecords caps a single list at the 20-bit count field.
const maxListRecords = 1<<20 - 1

// edgeKey composes the B+-tree key of (term, edge): the term in the high
// bits, the edge's rank (rankEdges) in the low 42. No two edges share a
// rank, so a key names one edge and a term's keys run in rank order.
func edgeKey(t obj.TermID, rank uint64) uint64 {
	return uint64(t)<<42 | (rank & ((1 << 42) - 1))
}

// rankEdges sorts g's edges by (CCAM region, Z-code of the center, edge
// ID) and returns each edge's position, the key order the package doc
// gives; g.EdgeRanks(rankEdges) memoises it on g. A graph whose nodes CCAM
// cannot page (an adjacency list larger than a page) is one region.
func rankEdges(g *graph.Graph) []uint32 {
	page := make([]int32, g.NumNodes())
	if groups, err := ccam.GrowPages(g); err == nil {
		for i, group := range groups {
			for _, n := range group {
				page[n] = int32(i)
			}
		}
	}
	n := g.NumEdges()
	order, region, z := make([]graph.EdgeID, n), make([]int32, n), make([]uint64, n)
	for i := range order {
		e := g.Edge(graph.EdgeID(i))
		order[i], region[i], z[i] = e.ID, min(page[e.N1], page[e.N2]), geo.ZCode(g.EdgeCenter(e.ID))
	}
	slices.SortFunc(order, func(a, b graph.EdgeID) int {
		return cmp.Or(cmp.Compare(region[a], region[b]), cmp.Compare(z[a], z[b]), cmp.Compare(a, b))
	})
	ranks := make([]uint32, n)
	for r, e := range order {
		ranks[e] = uint32(r)
	}
	return ranks
}

// Roots is the versioned root state of the inverted file: everything a
// reader needs to resolve queries against a fixed snapshot and a mutator
// needs to extend the index. A published Roots value must never be mutated;
// mutators work on a copy (InsertObjectAt / RemoveObjectAt clone the
// TermPostings slice on first write, and a leaf split gives the tree's
// Meta a new directory, so a shallow struct copy is a safe starting
// point).
type Roots struct {
	Tree btree.Meta

	// TermPostings[t] counts term t's postings; the signature layer skips
	// terms whose inverted file fits into one page.
	TermPostings []int32

	// Overflow heap write cursor: lists are appended at the tail.
	CurPage storage.PageID
	CurOff  int

	// PostingPages counts overflow heap pages (footprint accounting).
	PostingPages int
}

// Index is the IF structure: one logical inverted file per keyword, all
// sharing a single clustered B+-tree keyed by (term, edge rank) whose
// leaves hold the posting lists. All reads go through the buffer pool, so
// page fetches are counted as disk accesses.
type Index struct {
	pool  *storage.BufferPool
	roots Roots

	// postingsRead counts every posting record decoded at query time (the
	// C2/C3 of the paper's expected-load analysis). Shared across all
	// readers of this index regardless of which snapshot they pin.
	postingsRead atomic.Int64

	// overflowReads counts the query-time probes that had to follow a
	// key to the overflow heap.
	overflowReads *atomic.Int64
}

// CountOverflowReads makes c the counter of query-time probes that
// followed a key to the overflow heap (the engine hands in a counter of
// its metrics registry). Call it before the first query.
func (idx *Index) CountOverflowReads(c *atomic.Int64) { idx.overflowReads = c }

// Build constructs the inverted index for all objects in c over graph g.
// vocabSize is the vocabulary size |V|.
//
// Nothing is sorted but the occupied edges. A counting sort by term lays
// every posting out in the arena in the order the tree wants it: the edges
// are visited by rank and Collection.OnEdge lists an edge's objects by
// (offset, ID), so a term's slots fill in (key, offset, object) order,
// which is the order of the keys of the tree and of the records of a list.
// The lists are then runs of one edge in the arena and are handed to the
// bulk load where they lie.
func Build(g *graph.Graph, c *obj.Collection, vocabSize int, pool *storage.BufferPool) (*Index, error) {
	idx := &Index{pool: pool, overflowReads: new(atomic.Int64)}
	counts := make([]int32, vocabSize)
	idx.roots.TermPostings = counts

	edges := c.Edges()
	for _, e := range edges {
		for _, id := range c.OnEdge(e) {
			for _, t := range c.Get(id).Terms {
				if int(t) >= vocabSize {
					return nil, fmt.Errorf("invindex: term %d outside vocabulary of %d", t, vocabSize)
				}
				counts[t]++
			}
		}
	}
	rank := g.EdgeRanks(rankEdges)
	slices.SortFunc(edges, func(a, b graph.EdgeID) int { return cmp.Compare(rank[a], rank[b]) })

	// next[t] is term t's next arena slot and last[t] the rank+1 of its last
	// posting's edge (another edge opens a key); edgeAt[slot] is slot's edge.
	next, last := make([]int, vocabSize), make([]uint32, vocabSize)
	total, keys := 0, 0
	for t, n := range counts {
		next[t] = total
		total += int(n)
	}
	arena, edgeAt := make([]byte, total*postingSize), make([]graph.EdgeID, total)
	for _, e := range edges {
		for _, id := range c.OnEdge(e) {
			o := c.Get(id)
			for _, t := range o.Terms {
				putPosting(arena[next[t]*postingSize:], id, o.Pos.Offset)
				edgeAt[next[t]] = e
				next[t]++
				if last[t] != rank[e]+1 {
					last[t], keys = rank[e]+1, keys+1
				}
			}
		}
	}

	// One entry per run of an edge within a term; the few runs too long
	// for a leaf go to the overflow heap now, in key order.
	entries := make([]btree.Entry, 0, keys)
	for t, start := 0, 0; t < vocabSize; t++ {
		for end := next[t]; start < end; {
			e, run := edgeAt[start], start+1
			for run < end && edgeAt[run] == e {
				run++
			}
			value := arena[start*postingSize : run*postingSize : run*postingSize]
			if run-start > MaxInlineRecords {
				ref, err := writeOverflowAt(pool, &idx.roots, value)
				if err != nil {
					return nil, err
				}
				value = binary.LittleEndian.AppendUint64(nil, ref)
			}
			entries = append(entries, btree.Entry{Key: edgeKey(obj.TermID(t), uint64(rank[e])), Value: value})
			start = run
		}
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

// appendListValue sorts ps and appends the B+-tree value of the list to
// dst: the records themselves, or the address of the copy it writes to
// the overflow heap through p (advancing r's write cursor) when they are
// too many to share a leaf.
func appendListValue(dst []byte, p storage.Pager, r *Roots, ps []Posting) ([]byte, error) {
	slices.SortFunc(ps, func(a, b Posting) int {
		return cmp.Or(cmp.Compare(a.Offset, b.Offset), cmp.Compare(a.Object, b.Object))
	})
	at, size := len(dst), len(ps)*postingSize
	dst = slices.Grow(dst, size)[:at+size]
	for i, rec := range ps {
		putPosting(dst[at+i*postingSize:], rec.Object, rec.Offset)
	}
	if len(ps) <= MaxInlineRecords {
		return dst, nil
	}
	ref, err := writeOverflowAt(p, r, dst[at:])
	if err != nil {
		return nil, err
	}
	return binary.LittleEndian.AppendUint64(dst[:at], ref), nil
}

// writeOverflowAt appends the packed, sorted records recs to the overflow
// heap through p and returns the list address, advancing r's write cursor.
func writeOverflowAt(p storage.Pager, r *Roots, recs []byte) (uint64, error) {
	n := len(recs) / postingSize
	if n > maxListRecords {
		return 0, fmt.Errorf("invindex: posting list of %d records exceeds the %d cap", n, maxListRecords)
	}
	// A list that does not fit in the current page's remainder starts on a
	// fresh page, so that multi-page lists always occupy consecutively
	// allocated pages — the invariant readList's pageID++ walk relies on.
	// (During the initial build heap pages are consecutive anyway; after
	// the build, B+-tree pages interleave in the file.)
	remainder := (storage.PageSize - r.CurOff) / postingSize
	if r.CurPage == storage.InvalidPageID || n > remainder {
		if err := newHeapPageAt(p, r); err != nil {
			return 0, err
		}
	}
	startPage, startOff := r.CurPage, r.CurOff
	for rest := recs; len(rest) > 0; {
		if r.CurOff+postingSize > storage.PageSize {
			if err := newHeapPageAt(p, r); err != nil {
				return 0, err
			}
		}
		page, err := p.Get(r.CurPage)
		if err != nil {
			return 0, err
		}
		k := copy(page.Data()[r.CurOff:], rest[:min(len(rest), (storage.PageSize-r.CurOff)/postingSize*postingSize)])
		p.MarkDirty(r.CurPage)
		r.CurOff += k
		rest = rest[k:]
	}
	return packListRef(startPage, startOff, n), nil
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

// readList decodes the list a B+-tree value stands for as postings on
// edge e, the edge of its key. An inline value is decoded where it lies,
// in the leaf the probe read; an overflow address is followed through pr
// over the list's consecutive heap pages, which is the one case a probe
// costs more than that one page.
func readList(ctx context.Context, pr storage.PageReader, v []byte, e graph.EdgeID) ([]Posting, error) {
	if !isOverflowRef(v) {
		return appendPostings(make([]Posting, 0, len(v)/postingSize), v, e), nil
	}
	pageID, off, count := unpackListRef(binary.LittleEndian.Uint64(v))
	out := make([]Posting, 0, count)
	for count > 0 {
		page, err := pr.GetCtx(ctx, pageID)
		if err != nil {
			return nil, err
		}
		k := min(count, (storage.PageSize-off)/postingSize)
		out = appendPostings(out, page.Data()[off:off+k*postingSize], e)
		count -= k
		pageID++
		off = 0
	}
	return out, nil
}

// rewriteListAt replaces the list under key in the tree of r with what
// edit makes of it (nil for an absent key), through p. edit reports
// whether it changed anything; an unchanged list writes no page.
func rewriteListAt(p storage.Pager, r *Roots, key uint64, edit func([]Posting) ([]Posting, bool)) (bool, error) {
	var ps []Posting
	old, err := btree.GetAt(context.Background(), p, r.Tree, key)
	if err == nil {
		ps, err = readList(context.Background(), p, old, graph.InvalidEdge)
	} else if errors.Is(err, btree.ErrNotFound) {
		err = nil
	}
	if err != nil {
		return false, err
	}
	ps, changed := edit(ps)
	if !changed {
		return false, nil
	}
	v, err := appendListValue(nil, p, r, ps)
	if err != nil {
		return false, err
	}
	return true, btree.PutAt(p, &r.Tree, key, v)
}

// InsertObjectAt adds a new object's postings through p, updating *r in
// place. r must be a private copy of a published Roots (the TermPostings
// slice is cloned internally before the first write, so a shallow struct
// copy suffices). Each term's list is rewritten in its copy-on-write leaf,
// which splits if the list no longer fits; only a list that outgrows
// MaxInlineRecords is written out to the overflow heap's tail (and
// rewritten there from then on, the abandoned space being the usual
// inverted-file amplification of in-place updates).
func (idx *Index) InsertObjectAt(p storage.Pager, r *Roots, key uint64, id obj.ID, offset float64, terms []obj.TermID) error {
	r.TermPostings = append([]int32(nil), r.TermPostings...)
	rec := Posting{Object: id, Offset: offset}
	for _, t := range terms {
		if int(t) >= len(r.TermPostings) {
			return fmt.Errorf("invindex: term %d outside vocabulary of %d", t, len(r.TermPostings))
		}
		if _, err := rewriteListAt(p, r, edgeKey(t, key), func(ps []Posting) ([]Posting, bool) {
			return append(ps, rec), true
		}); err != nil {
			return err
		}
		r.TermPostings[t]++
	}
	return nil
}

// RemoveObjectAt deletes an object's postings through p, updating *r in
// place (same contract as InsertObjectAt): each affected list is rewritten
// without the object's record, back into the leaf once it is short enough.
// A key whose last posting goes keeps an empty list. Removing an object
// absent from a term's list is ignored for that term.
func (idx *Index) RemoveObjectAt(p storage.Pager, r *Roots, key uint64, id obj.ID, terms []obj.TermID) error {
	r.TermPostings = append([]int32(nil), r.TermPostings...)
	for _, t := range terms {
		if int(t) >= len(r.TermPostings) {
			return fmt.Errorf("invindex: term %d outside vocabulary of %d", t, len(r.TermPostings))
		}
		removed, err := rewriteListAt(p, r, edgeKey(t, key), func(ps []Posting) ([]Posting, bool) {
			kept := slices.DeleteFunc(ps, func(rec Posting) bool { return rec.Object == id })
			return kept, len(kept) < len(ps)
		})
		if err != nil {
			return err
		}
		if removed {
			r.TermPostings[t]--
		}
	}
	return nil
}

// EdgeZCoder supplies an edge's key cell, the low bits of its keys (the
// paper's Z-code of the edge's center; here the edge's rank, see the
// package doc); it is injected so that query processing does not depend
// on the full in-memory graph.
type EdgeZCoder interface {
	EdgeZCode(e graph.EdgeID) uint64
}

// GraphZCoder adapts a *graph.Graph to EdgeZCoder: EdgeZCode(e) is e's
// rank, the key cell Build files e's lists under. The rank table is
// memoised on the graph, so a probe costs one slice lookup, and a
// GraphZCoder over any graph value of the same network finds the keys an
// index built over another wrote.
type GraphZCoder struct{ G *graph.Graph }

// EdgeZCode implements EdgeZCoder.
func (z GraphZCoder) EdgeZCode(e graph.EdgeID) uint64 { return uint64(z.G.EdgeRanks(rankEdges)[e]) }

// Loader is the query-time handle of the IF index: it resolves edge key
// cells through the coder and intersects the per-term posting lists
// with AND semantics (Algorithm 2 without the signature test). Its methods
// read the live roots through the buffer pool; At binds the same logic to
// a pinned page view and a published Roots snapshot for latch-free reads.
type Loader struct {
	Idx   *Index
	Coder EdgeZCoder
	// SelectivityOrder probes the query's terms rarest first, by the
	// posting counts of the reader's own snapshot, so an empty
	// intersection stops after the rarest term's list read. The served
	// indexes turn it on (engine.Network.SigOptions). Off is the paper's
	// query order, which the experiments keep: the evaluation's IF-vs-SIF
	// gap is measured in it (see the ablation-selectivity experiment).
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

// TermPostingsCtx returns term t's postings on edge e, whose key cell is
// key (the R_t of Algorithm 2), at this reader's snapshot. A done ctx
// aborts the leaf read or the overflow walk before the next page read.
func (rd Reader) TermPostingsCtx(ctx context.Context, t obj.TermID, e graph.EdgeID, key uint64) ([]Posting, error) {
	v, err := btree.GetAt(ctx, rd.PR, rd.Roots.Tree, edgeKey(t, key))
	if errors.Is(err, btree.ErrNotFound) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	if isOverflowRef(v) {
		rd.Idx.overflowReads.Add(1)
	}
	ps, err := readList(ctx, rd.PR, v, e)
	rd.Idx.postingsRead.Add(int64(len(ps)))
	return ps, err
}

func byObject(a, b Posting) int { return cmp.Compare(a.Object, b.Object) }

// LoadObjects implements index.Loader: it loads R_t for every query term
// and returns the intersection, stopping at the first empty list
// (rarest term first when SelectivityOrder is on). The lists of one edge
// hold a handful of postings, so the intersection is a merge of
// object-sorted slices kept in the first term's slice, not a map per
// term; it comes out in object order whatever order the terms are read
// in.
func (rd Reader) LoadObjects(ctx context.Context, e graph.EdgeID, terms []obj.TermID) ([]index.ObjectRef, error) {
	if len(terms) == 0 {
		return nil, nil
	}
	var order [stackTerms]obj.TermID
	if rd.SelectivityOrder {
		terms = rarestFirst(append(order[:0], terms...), rd.Roots.TermPostings)
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
// least one query term, with the terms each contains (the OR semantics of
// the ranked and collective queries), in ascending object ID.
// Like LoadObjects it merges the object-sorted lists of the terms, into
// two slices that swap roles from term to term.
func (rd Reader) LoadObjectsAny(ctx context.Context, e graph.EdgeID, terms []obj.TermID) ([]index.ObjectMatch, error) {
	if len(terms) == 0 {
		return nil, nil
	}
	z := rd.Coder.EdgeZCode(e)
	var union, spare []index.ObjectMatch
	for j, t := range terms {
		ps, err := rd.TermPostingsCtx(ctx, t, e, z)
		if err != nil {
			return nil, err
		}
		if len(ps) == 0 {
			continue
		}
		slices.SortFunc(ps, byObject)
		merged, i := slices.Grow(spare[:0], len(union)+len(ps)), 0
		for _, p := range ps {
			for i < len(union) && union[i].Ref.ID < p.Object {
				merged = append(merged, union[i])
				i++
			}
			m := index.ObjectMatch{Ref: index.ObjectRef{ID: p.Object, Edge: p.Edge, Offset: p.Offset}}
			if i < len(union) && union[i].Ref.ID == p.Object {
				m = union[i]
				i++
			}
			m.Terms.Add(j)
			merged = append(merged, m)
		}
		merged = append(merged, union[i:]...)
		union, spare = merged, union
	}
	return union, nil
}

// PostingsRead returns how many posting records queries have decoded.
func (idx *Index) PostingsRead() int64 { return idx.postingsRead.Load() }

// ResetPostingsRead zeroes the posting-read counter.
func (idx *Index) ResetPostingsRead() { idx.postingsRead.Store(0) }

// stackTerms is how many query terms LoadObjects orders in an array on
// its stack; a longer list is copied to the heap.
const stackTerms = 8

// rarestFirst sorts terms in place by ascending posting count, keeping
// query order among equal counts, and returns them. It is an insertion
// sort: a query names a handful of terms, and it allocates nothing.
func rarestFirst(terms []obj.TermID, counts []int32) []obj.TermID {
	for i := 1; i < len(terms); i++ {
		for j := i; j > 0 && counts[terms[j]] < counts[terms[j-1]]; j-- {
			terms[j], terms[j-1] = terms[j-1], terms[j]
		}
	}
	return terms
}

// sigPageRecords is the records of one page of the 16-byte postings the
// signature layer's one-page rule was set at (ListPages). It stays when
// the record shrank to 12 bytes, so the set of signed terms, every
// signature bit and SIF's false hits stay as they were.
const sigPageRecords = storage.PageSize / 16

// ListPages returns the approximate number of pages term t's postings
// fill (at sigPageRecords density, wherever they lie); the signature layer
// skips terms whose inverted file fits in a single page.
func (idx *Index) ListPages(t obj.TermID) int {
	return (int(idx.roots.TermPostings[t]) + sigPageRecords - 1) / sigPageRecords
}

// SizeBytes returns the footprint: the B+-tree, whose leaves hold the
// lists, with its in-memory leaf directory, plus the overflow heap.
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
