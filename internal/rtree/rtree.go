// Package rtree implements a disk-resident R-tree over rectangles with
// uint64 payloads, stored in 4KB pages behind a buffer pool. It serves two
// roles from the paper: the network R-tree over edge MBRs (used to identify
// the edge an object lies on / snap objects to their closest road segment,
// Section 2.2) and the per-keyword trees of the Inverted R-tree baseline
// (IR, Section 5).
//
// Construction is by STR (sort-tile-recursive) bulk loading; incremental
// insertion with linear split is also provided.
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
	pool   *storage.BufferPool
	root   storage.PageID
	height int
	count  int
	pages  int
}

// New creates an empty tree.
func New(pool *storage.BufferPool) (*Tree, error) {
	t := &Tree{pool: pool}
	id, err := t.newPage(kindLeaf)
	if err != nil {
		return nil, err
	}
	t.root = id
	t.height = 1
	return t, nil
}

// Len returns the number of stored entries.
func (t *Tree) Len() int { return t.count }

// Height returns the tree height (1 = root is a leaf).
func (t *Tree) Height() int { return t.height }

// NumPages returns the number of pages occupied.
func (t *Tree) NumPages() int { return t.pages }

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

func nodeMBR(p *storage.Page) geo.Rect {
	r := geo.EmptyRect()
	kind, n := pageKind(p), pageCount(p)
	for i := 0; i < n; i++ {
		r.Expand(readRect(p, entryOff(kind, i)))
	}
	return r
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
	t.height = 1

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
		t.height++
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

// --- insert -----------------------------------------------------------------

// Insert adds an entry, splitting nodes on overflow (linear split).
func (t *Tree) Insert(e Entry) error {
	split, err := t.insertAt(t.root, t.height, e)
	if err != nil {
		return err
	}
	if split != nil {
		rootID, err := t.newPage(kindInternal)
		if err != nil {
			return err
		}
		p, err := t.pool.Get(rootID)
		if err != nil {
			return err
		}
		old, err := t.pool.Get(t.root)
		if err != nil {
			return err
		}
		oldMBR := nodeMBR(old)
		p, err = t.pool.Get(rootID)
		if err != nil {
			return err
		}
		setCount(p, 2)
		setInnerEntry(p, 0, oldMBR, t.root)
		setInnerEntry(p, 1, split.mbr, split.id)
		t.pool.MarkDirty(rootID)
		t.root = rootID
		t.height++
	}
	t.count++
	return nil
}

type splitNode struct {
	id  storage.PageID
	mbr geo.Rect
}

func (t *Tree) insertAt(id storage.PageID, level int, e Entry) (*splitNode, error) {
	p, err := t.pool.Get(id)
	if err != nil {
		return nil, err
	}
	if pageKind(p) == kindLeaf {
		return t.insertLeaf(id, e)
	}
	// Choose subtree: least enlargement, ties by area.
	n := pageCount(p)
	best, bestEnl, bestArea := 0, math.Inf(1), math.Inf(1)
	for i := 0; i < n; i++ {
		r := readRect(p, entryOff(kindInternal, i))
		enl, area := r.Enlargement(e.Rect), r.Area()
		if enl < bestEnl || (enl == bestEnl && area < bestArea) {
			best, bestEnl, bestArea = i, enl, area
		}
	}
	child := innerChild(p, best)
	split, err := t.insertAt(child, level-1, e)
	if err != nil {
		return nil, err
	}
	// Refresh the chosen entry's MBR.
	cp, err := t.pool.Get(child)
	if err != nil {
		return nil, err
	}
	childMBR := nodeMBR(cp)
	p, err = t.pool.Get(id)
	if err != nil {
		return nil, err
	}
	setInnerEntry(p, best, childMBR, child)
	t.pool.MarkDirty(id)
	if split == nil {
		return nil, nil
	}
	return t.addInnerEntry(id, *split)
}

func (t *Tree) insertLeaf(id storage.PageID, e Entry) (*splitNode, error) {
	p, err := t.pool.Get(id)
	if err != nil {
		return nil, err
	}
	n := pageCount(p)
	if n < MaxLeafEntries {
		setLeafEntry(p, n, e)
		setCount(p, n+1)
		t.pool.MarkDirty(id)
		return nil, nil
	}
	// Overflow: linear split by the axis with the widest spread of centers.
	all := make([]Entry, 0, n+1)
	for i := 0; i < n; i++ {
		all = append(all, Entry{readRect(p, entryOff(kindLeaf, i)), leafRef(p, i)})
	}
	all = append(all, e)
	left, right := linearSplit(all)

	rightID, err := t.newPage(kindLeaf)
	if err != nil {
		return nil, err
	}
	lp, err := t.pool.Get(id)
	if err != nil {
		return nil, err
	}
	setCount(lp, len(left))
	for i, le := range left {
		setLeafEntry(lp, i, le)
	}
	t.pool.MarkDirty(id)
	rp, err := t.pool.Get(rightID)
	if err != nil {
		return nil, err
	}
	setCount(rp, len(right))
	mbr := geo.EmptyRect()
	for i, re := range right {
		setLeafEntry(rp, i, re)
		mbr.Expand(re.Rect)
	}
	t.pool.MarkDirty(rightID)
	return &splitNode{rightID, mbr}, nil
}

func (t *Tree) addInnerEntry(id storage.PageID, s splitNode) (*splitNode, error) {
	p, err := t.pool.Get(id)
	if err != nil {
		return nil, err
	}
	n := pageCount(p)
	if n < MaxInternalEntries {
		setInnerEntry(p, n, s.mbr, s.id)
		setCount(p, n+1)
		t.pool.MarkDirty(id)
		return nil, nil
	}
	type innerEnt struct {
		rect  geo.Rect
		child storage.PageID
	}
	all := make([]innerEnt, 0, n+1)
	for i := 0; i < n; i++ {
		all = append(all, innerEnt{readRect(p, entryOff(kindInternal, i)), innerChild(p, i)})
	}
	all = append(all, innerEnt{s.mbr, s.id})
	sort.Slice(all, func(i, j int) bool {
		return all[i].rect.Center().X < all[j].rect.Center().X
	})
	mid := len(all) / 2
	lp, err := t.pool.Get(id)
	if err != nil {
		return nil, err
	}
	setCount(lp, mid)
	for i := 0; i < mid; i++ {
		setInnerEntry(lp, i, all[i].rect, all[i].child)
	}
	t.pool.MarkDirty(id)
	rightID, err := t.newPage(kindInternal)
	if err != nil {
		return nil, err
	}
	rp, err := t.pool.Get(rightID)
	if err != nil {
		return nil, err
	}
	setCount(rp, len(all)-mid)
	mbr := geo.EmptyRect()
	for i := mid; i < len(all); i++ {
		setInnerEntry(rp, i-mid, all[i].rect, all[i].child)
		mbr.Expand(all[i].rect)
	}
	t.pool.MarkDirty(rightID)
	return &splitNode{rightID, mbr}, nil
}

// linearSplit partitions entries into two halves along the axis with the
// widest center spread.
func linearSplit(all []Entry) (left, right []Entry) {
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	for _, e := range all {
		c := e.Rect.Center()
		minX, maxX = math.Min(minX, c.X), math.Max(maxX, c.X)
		minY, maxY = math.Min(minY, c.Y), math.Max(maxY, c.Y)
	}
	byX := maxX-minX >= maxY-minY
	sort.Slice(all, func(i, j int) bool {
		ci, cj := all[i].Rect.Center(), all[j].Rect.Center()
		if byX {
			return ci.X < cj.X
		}
		return ci.Y < cj.Y
	})
	mid := len(all) / 2
	return all[:mid], all[mid:]
}

// --- queries ----------------------------------------------------------------

// Search calls fn for every stored entry whose rectangle intersects query,
// until fn returns false.
func (t *Tree) Search(query geo.Rect, fn func(Entry) bool) error {
	return t.SearchCtx(context.Background(), query, fn)
}

// SearchCtx is Search with cancellation: a done ctx aborts the traversal
// before the next page read.
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
