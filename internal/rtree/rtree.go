// Package rtree implements a disk-resident R-tree over rectangles with
// uint64 payloads, stored in 4KB pages behind a buffer pool. It serves two
// roles from the paper: the network R-tree over edge MBRs (used to identify
// the edge an object lies on / snap objects to their closest road segment,
// Section 2.2) and the per-keyword trees of the Inverted R-tree baseline
// (IR, Section 5).
//
// Construction is by STR (sort-tile-recursive) bulk loading; a tree is
// not changed after it is built.
package rtree

import (
	"context"
	"math"
	"sort"

	"dsks/internal/geo"
	"dsks/internal/minheap"
	"dsks/internal/storage"
)

// Entry is a rectangle with its payload reference.
type Entry struct {
	Rect geo.Rect
	Ref  uint64
}

// Page layout:
//
//	header: kind uint16 (1 = leaf, 2 = internal), count uint16
//	entry:  minX, minY, maxX, maxY float64, then ref uint64 (leaf)
//	        or child uint32 (internal)
const (
	kindLeaf     = 1
	kindInternal = 2

	headerSize = 4
	rectSize   = 32
	leafEntry  = rectSize + 8
	innerEntry = rectSize + 4

	// MaxLeafEntries and MaxInternalEntries are per-page fan-outs.
	MaxLeafEntries     = (storage.PageSize - headerSize) / leafEntry
	MaxInternalEntries = (storage.PageSize - headerSize) / innerEntry
)

// Tree is an R-tree handle.
type Tree struct {
	pool  *storage.BufferPool
	root  storage.PageID
	count int
	pages int
}

// New creates an empty tree.
func New(pool *storage.BufferPool) (*Tree, error) {
	t := &Tree{pool: pool}
	id, err := t.newPage(kindLeaf)
	if err != nil {
		return nil, err
	}
	t.root = id
	return t, nil
}

// Len returns the number of stored entries.
func (t *Tree) Len() int { return t.count }

// SizeBytes returns the on-disk footprint.
func (t *Tree) SizeBytes() int64 { return int64(t.pages) * storage.PageSize }

func (t *Tree) newPage(kind uint16) (storage.PageID, error) {
	p, err := t.pool.Allocate()
	if err != nil {
		return storage.InvalidPageID, err
	}
	p.PutUint16(0, kind)
	p.PutUint16(2, 0)
	t.pool.MarkDirty(p.ID())
	t.pages++
	return p.ID(), nil
}

func pageKind(p *storage.Page) uint16 { return p.Uint16(0) }
func pageCount(p *storage.Page) int   { return int(p.Uint16(2)) }
func setCount(p *storage.Page, n int) { p.PutUint16(2, uint16(n)) }

func entryOff(kind uint16, i int) int {
	if kind == kindLeaf {
		return headerSize + i*leafEntry
	}
	return headerSize + i*innerEntry
}

func readRect(p *storage.Page, off int) geo.Rect {
	return geo.Rect{
		MinX: p.Float64(off),
		MinY: p.Float64(off + 8),
		MaxX: p.Float64(off + 16),
		MaxY: p.Float64(off + 24),
	}
}

func writeRect(p *storage.Page, off int, r geo.Rect) {
	p.PutFloat64(off, r.MinX)
	p.PutFloat64(off+8, r.MinY)
	p.PutFloat64(off+16, r.MaxX)
	p.PutFloat64(off+24, r.MaxY)
}

func leafRef(p *storage.Page, i int) uint64 { return p.Uint64(entryOff(kindLeaf, i) + rectSize) }
func setLeafEntry(p *storage.Page, i int, e Entry) {
	off := entryOff(kindLeaf, i)
	writeRect(p, off, e.Rect)
	p.PutUint64(off+rectSize, e.Ref)
}

func innerChild(p *storage.Page, i int) storage.PageID {
	return storage.PageID(p.Uint32(entryOff(kindInternal, i) + rectSize))
}
func setInnerEntry(p *storage.Page, i int, r geo.Rect, child storage.PageID) {
	off := entryOff(kindInternal, i)
	writeRect(p, off, r)
	p.PutUint32(off+rectSize, uint32(child))
}

// --- bulk load --------------------------------------------------------------

// BulkLoad builds a tree over entries using sort-tile-recursive packing.
func BulkLoad(pool *storage.BufferPool, entries []Entry) (*Tree, error) {
	t := &Tree{pool: pool}
	if len(entries) == 0 {
		return New(pool)
	}
	type nodeRef struct {
		id  storage.PageID
		mbr geo.Rect
	}

	perLeaf := MaxLeafEntries * 3 / 4
	if perLeaf < 1 {
		perLeaf = 1
	}
	sorted := make([]Entry, len(entries))
	copy(sorted, entries)
	strSortEntries(sorted, perLeaf)

	var level []nodeRef
	for start := 0; start < len(sorted); start += perLeaf {
		end := start + perLeaf
		if end > len(sorted) {
			end = len(sorted)
		}
		id, err := t.newPage(kindLeaf)
		if err != nil {
			return nil, err
		}
		p, err := pool.Get(id)
		if err != nil {
			return nil, err
		}
		setCount(p, end-start)
		mbr := geo.EmptyRect()
		for j := start; j < end; j++ {
			setLeafEntry(p, j-start, sorted[j])
			mbr.Expand(sorted[j].Rect)
		}
		pool.MarkDirty(id)
		level = append(level, nodeRef{id, mbr})
	}

	perNode := MaxInternalEntries * 3 / 4
	if perNode < 2 {
		perNode = 2
	}
	for len(level) > 1 {
		// Re-tile the child MBRs by center, like the leaf level.
		sort.Slice(level, func(i, j int) bool {
			return level[i].mbr.Center().X < level[j].mbr.Center().X
		})
		sliceLen := perNode * int(math.Ceil(math.Sqrt(float64((len(level)+perNode-1)/perNode))))
		if sliceLen < perNode {
			sliceLen = perNode
		}
		for s := 0; s < len(level); s += sliceLen {
			e := s + sliceLen
			if e > len(level) {
				e = len(level)
			}
			part := level[s:e]
			sort.Slice(part, func(i, j int) bool {
				return part[i].mbr.Center().Y < part[j].mbr.Center().Y
			})
		}
		var next []nodeRef
		for start := 0; start < len(level); start += perNode {
			end := start + perNode
			if end > len(level) {
				end = len(level)
			}
			id, err := t.newPage(kindInternal)
			if err != nil {
				return nil, err
			}
			p, err := pool.Get(id)
			if err != nil {
				return nil, err
			}
			setCount(p, end-start)
			mbr := geo.EmptyRect()
			for j := start; j < end; j++ {
				setInnerEntry(p, j-start, level[j].mbr, level[j].id)
				mbr.Expand(level[j].mbr)
			}
			pool.MarkDirty(id)
			next = append(next, nodeRef{id, mbr})
		}
		level = next
	}
	t.root = level[0].id
	t.count = len(entries)
	if err := pool.Flush(); err != nil {
		return nil, err
	}
	return t, nil
}

// strSortEntries orders entries by STR tiling: slices by center X, within a
// slice by center Y.
func strSortEntries(es []Entry, perLeaf int) {
	sort.Slice(es, func(i, j int) bool {
		return es[i].Rect.Center().X < es[j].Rect.Center().X
	})
	numLeaves := (len(es) + perLeaf - 1) / perLeaf
	slices := int(math.Ceil(math.Sqrt(float64(numLeaves))))
	if slices < 1 {
		slices = 1
	}
	sliceLen := perLeaf * int(math.Ceil(float64(numLeaves)/float64(slices)))
	if sliceLen < perLeaf {
		sliceLen = perLeaf
	}
	for s := 0; s < len(es); s += sliceLen {
		e := s + sliceLen
		if e > len(es) {
			e = len(es)
		}
		part := es[s:e]
		sort.Slice(part, func(i, j int) bool {
			return part[i].Rect.Center().Y < part[j].Rect.Center().Y
		})
	}
}

// --- queries ----------------------------------------------------------------

// SearchCtx calls fn for every stored entry whose rectangle intersects
// query, until fn returns false. A done ctx aborts the traversal before
// the next page read.
func (t *Tree) SearchCtx(ctx context.Context, query geo.Rect, fn func(Entry) bool) error {
	_, err := t.search(ctx, t.root, query, fn)
	return err
}

func (t *Tree) search(ctx context.Context, id storage.PageID, query geo.Rect, fn func(Entry) bool) (bool, error) {
	p, err := t.pool.GetCtx(ctx, id)
	if err != nil {
		return false, err
	}
	kind, n := pageKind(p), pageCount(p)
	if kind == kindLeaf {
		for i := 0; i < n; i++ {
			r := readRect(p, entryOff(kindLeaf, i))
			if r.Intersects(query) {
				e := Entry{r, leafRef(p, i)}
				if !fn(e) {
					return false, nil
				}
				// fn may have triggered pool activity; re-fetch.
				p, err = t.pool.GetCtx(ctx, id)
				if err != nil {
					return false, err
				}
			}
		}
		return true, nil
	}
	// Collect matching children first: recursion may evict this frame.
	var children []storage.PageID
	for i := 0; i < n; i++ {
		if readRect(p, entryOff(kindInternal, i)).Intersects(query) {
			children = append(children, innerChild(p, i))
		}
	}
	for _, c := range children {
		cont, err := t.search(ctx, c, query, fn)
		if err != nil || !cont {
			return cont, err
		}
	}
	return true, nil
}

// NearestRefine is the distance refinement callback of Nearest: given an
// entry it returns the exact distance from the query point to the indexed
// geometry (e.g. point-to-segment distance for edge MBRs).
type NearestRefine func(Entry) float64

// Nearest performs best-first nearest-neighbor search from p using MBR
// MinDist as the lower bound and refine as the exact distance. It returns
// the closest entry and its exact distance, or false for an empty tree.
func (t *Tree) Nearest(p geo.Point, refine NearestRefine) (Entry, float64, bool) {
	var pq minheap.Heap[nnItem]
	pq.Push(0, 0, nnItem{page: t.root})
	bestDist := math.Inf(1)
	var best Entry
	found := false
	for pq.Len() > 0 {
		top := pq.Pop()
		if top.Key >= bestDist {
			break
		}
		it := top.Val
		if it.isEntry {
			d := refine(it.entry)
			if d < bestDist {
				bestDist, best, found = d, it.entry, true
			}
			continue
		}
		page, err := t.pool.Get(it.page)
		if err != nil {
			return Entry{}, 0, false
		}
		kind, n := pageKind(page), pageCount(page)
		for i := 0; i < n; i++ {
			r := readRect(page, entryOff(kind, i))
			d := r.MinDist(p)
			if d >= bestDist {
				continue
			}
			if kind == kindLeaf {
				ref := leafRef(page, i)
				pq.Push(d, int32(ref), nnItem{isEntry: true, entry: Entry{r, ref}})
			} else {
				child := innerChild(page, i)
				pq.Push(d, int32(child), nnItem{page: child})
			}
		}
	}
	return best, bestDist, found
}

// nnItem is a queued subtree (page) or, once a leaf is opened, an entry
// awaiting refinement; the heap key is its MinDist lower bound.
type nnItem struct {
	isEntry bool
	entry   Entry
	page    storage.PageID
}
