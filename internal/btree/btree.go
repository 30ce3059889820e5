// Package btree implements a disk-resident, clustered B+-tree with uint64
// keys and variable-length byte values, stored in 4KB pages behind a buffer
// pool. It is the spine of every inverted file in the library: the key of
// an edge is the Z-order code of its center point (under the term) and the
// value is the edge's posting list itself, so a lookup ends on the page
// that holds the list.
//
// The tree supports point lookup, ordered range scans, upsert and sorted
// bulk loading (the construction path of the indexes).
//
// Tree state is split in two: the immutable Meta value (root page, height,
// counts) and the page source the operation runs against. Every operation
// exists in a form parameterized over storage.PageReader / storage.Pager —
// GetAt, ScanAt, PutAt — so reads can run against an LSN-pinned
// storage.PageView and mutations against a copy-on-write
// storage.WriteBatch (the MVCC query path), while the Tree handle binds a
// Meta to a concrete buffer pool for the single-threaded build path and
// tests.
package btree

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"

	"dsks/internal/storage"
)

// Page layouts.
//
//	common header: kind uint16 (1 = leaf, 2 = internal), count uint16
//	leaf:     next uint32 (PageID of right sibling), then the slot
//	          directory, count × (key u64, end u16) in key order, then the
//	          cell area: value i occupies [end(i-1), end(i)) of it, with
//	          end(-1) = 0. Slots and cells are contiguous, so a leaf is
//	          rewritten whole when an entry is added, grows or shrinks.
//	internal: count × key u64, (count+1) × child u32
const (
	kindLeaf     = 1
	kindInternal = 2

	headerSize = 4
	leafMeta   = headerSize + 4
	slotSize   = 10
	// leafSpace is what a leaf has for slots and cells together.
	leafSpace = storage.PageSize - leafMeta
	// MaxValueSize bounds a value so that any leaf has room for four
	// entries: a split then always finds a cut that leaves both halves
	// within a page, however the sizes fall.
	MaxValueSize = leafSpace/4 - slotSize

	internalMeta = headerSize
	// MaxInternalKeys is the number of separator keys an internal page holds.
	// Each key is 8 bytes and each of the count+1 children is 4 bytes.
	MaxInternalKeys = (storage.PageSize - internalMeta - 4) / 12
)

// ErrNotFound is returned by Get for absent keys.
var ErrNotFound = errors.New("btree: key not found")

// ErrValueTooLarge is returned by Put and BulkLoad for a value longer than
// MaxValueSize.
var ErrValueTooLarge = errors.New("btree: value exceeds MaxValueSize")

// Meta is the versioned root state of a tree: everything needed to read or
// mutate it besides the pages themselves. Meta is a small value; copying
// it is how the MVCC layer snapshots a tree — a mutation through PutAt
// updates the caller's copy, leaving every previously published Meta
// reading its old root unchanged.
type Meta struct {
	Root   storage.PageID
	Height int // 1 = root is a leaf
	Count  int // number of keys stored
	Pages  int // pages the tree occupies
}

// SizeBytes returns the on-disk footprint of the tree.
func (m Meta) SizeBytes() int64 { return int64(m.Pages) * storage.PageSize }

// Tree binds a Meta to a buffer pool: the handle of the build path and of
// single-threaded callers. Concurrent readers use GetAt/ScanAt with a
// pinned storage.PageView and a published Meta instead.
type Tree struct {
	pool *storage.BufferPool
	m    Meta
}

// New creates an empty tree (a single empty leaf as root).
func New(pool *storage.BufferPool) (*Tree, error) {
	m, err := NewAt(pool)
	if err != nil {
		return nil, err
	}
	return &Tree{pool: pool, m: m}, nil
}

// Open binds an existing tree's Meta to a pool.
func Open(pool *storage.BufferPool, m Meta) *Tree { return &Tree{pool: pool, m: m} }

// Meta returns the tree's current root state.
func (t *Tree) Meta() Meta { return t.m }

// Len returns the number of keys stored.
func (t *Tree) Len() int { return t.m.Count }

// Height returns the tree height (1 = root is a leaf).
func (t *Tree) Height() int { return t.m.Height }

// NumPages returns the number of pages the tree occupies.
func (t *Tree) NumPages() int { return t.m.Pages }

// SizeBytes returns the on-disk footprint of the tree.
func (t *Tree) SizeBytes() int64 { return t.m.SizeBytes() }

// Get returns the value stored under key, or ErrNotFound (see GetAt for
// how long the returned bytes stay valid).
func (t *Tree) Get(key uint64) ([]byte, error) {
	return GetAt(context.Background(), t.pool, t.m, key)
}

// Scan calls fn with every key in lo <= key <= hi and the byte length of
// its value, in ascending key order, until fn returns false or the range
// is exhausted: the key walk of inspection tools. ScanAt hands out the
// values themselves.
func (t *Tree) Scan(lo, hi uint64, fn func(key, size uint64) bool) error {
	return ScanAt(t.pool, t.m, lo, hi, func(k uint64, v []byte) bool { return fn(k, uint64(len(v))) })
}

// Put stores value under key, replacing what the key held.
func (t *Tree) Put(key uint64, value []byte) error {
	return PutAt(t.pool, &t.m, key, value)
}

// NewAt writes an empty tree (a single empty leaf as root) through p and
// returns its Meta.
func NewAt(p storage.Pager) (Meta, error) {
	var m Meta
	leaf, err := newPageAt(p, &m, kindLeaf)
	if err != nil {
		return Meta{}, err
	}
	m.Root = leaf
	m.Height = 1
	return m, nil
}

func newPageAt(p storage.Pager, m *Meta, kind uint16) (storage.PageID, error) {
	pg, err := p.Allocate()
	if err != nil {
		return storage.InvalidPageID, err
	}
	pg.PutUint16(0, kind)
	pg.PutUint16(2, 0)
	if kind == kindLeaf {
		pg.PutUint32(headerSize, uint32(storage.InvalidPageID))
	}
	p.MarkDirty(pg.ID())
	m.Pages++
	return pg.ID(), nil
}

// --- page accessors -------------------------------------------------------

func pageKind(p *storage.Page) uint16 { return p.Uint16(0) }
func pageCount(p *storage.Page) int   { return int(p.Uint16(2)) }
func setCount(p *storage.Page, n int) { p.PutUint16(2, uint16(n)) }
func leafNext(p *storage.Page) storage.PageID {
	return storage.PageID(p.Uint32(headerSize))
}
func setLeafNext(p *storage.Page, id storage.PageID) { p.PutUint32(headerSize, uint32(id)) }

func leafKey(p *storage.Page, i int) uint64 { return p.Uint64(leafMeta + i*slotSize) }

// leafSearch returns the first slot of the n-slot leaf p whose key is not
// below key.
func leafSearch(p *storage.Page, n int, key uint64) int {
	lo, hi := 0, n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if leafKey(p, mid) < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// leafValue returns value i of the n-slot leaf p, aliasing the page. The
// cell bounds come off the disk, so they are checked before they slice.
func leafValue(p *storage.Page, n, i int) ([]byte, error) {
	start := 0
	if i > 0 {
		start = int(p.Uint16(leafMeta + (i-1)*slotSize + 8))
	}
	end := int(p.Uint16(leafMeta + i*slotSize + 8))
	base := leafMeta + n*slotSize
	if start > end || base+end > storage.PageSize {
		return nil, fmt.Errorf("btree: leaf %d slot %d spans [%d, %d) of a %d-byte cell area: %w",
			p.ID(), i, start, end, storage.PageSize-base, storage.ErrCorruptPage)
	}
	return p.Data()[base+start : base+end : base+end], nil
}

// Entry is a (key, value) pair: the unit of bulk loading and of a leaf's
// decoded content.
type Entry struct {
	Key   uint64
	Value []byte
}

func entrySize(e Entry) int { return slotSize + len(e.Value) }

// leafEntries decodes the leaf with room for one more entry; the values
// alias the page.
func leafEntries(p *storage.Page) ([]Entry, error) {
	n := pageCount(p)
	out := make([]Entry, n, n+1)
	for i := range out {
		v, err := leafValue(p, n, i)
		if err != nil {
			return nil, err
		}
		out[i] = Entry{Key: leafKey(p, i), Value: v}
	}
	return out, nil
}

// writeLeaf lays entries (which must fit) out as leaf p. The image is
// assembled aside first, because the values may alias p itself.
func writeLeaf(p *storage.Page, entries []Entry, next storage.PageID) {
	var img storage.Page
	img.PutUint16(0, kindLeaf)
	setCount(&img, len(entries))
	setLeafNext(&img, next)
	data := img.Data()
	cells := data[leafMeta+len(entries)*slotSize:]
	end := 0
	for i, e := range entries {
		end += copy(cells[end:], e.Value)
		img.PutUint64(leafMeta+i*slotSize, e.Key)
		img.PutUint16(leafMeta+i*slotSize+8, uint16(end))
	}
	copy(p.Data(), data)
}

func internalKey(p *storage.Page, i int) uint64       { return p.Uint64(internalMeta + i*8) }
func setInternalKey(p *storage.Page, i int, k uint64) { p.PutUint64(internalMeta+i*8, k) }

func childOff(i int) int { return internalMeta + MaxInternalKeys*8 + i*4 }
func internalChild(p *storage.Page, i int) storage.PageID {
	return storage.PageID(p.Uint32(childOff(i)))
}
func setInternalChild(p *storage.Page, i int, id storage.PageID) {
	p.PutUint32(childOff(i), uint32(id))
}

// --- lookup ---------------------------------------------------------------

// findLeafAt descends to the leaf that would contain key and returns it:
// one page request per level, so a lookup costs exactly Meta.Height of
// them.
func findLeafAt(ctx context.Context, r storage.PageReader, m Meta, key uint64) (*storage.Page, error) {
	id := m.Root
	for {
		p, err := r.GetCtx(ctx, id)
		if err != nil {
			return nil, err
		}
		if pageKind(p) == kindLeaf {
			return p, nil
		}
		n := pageCount(p)
		// First separator strictly greater than key; descend left of it.
		i := sort.Search(n, func(i int) bool { return internalKey(p, i) > key })
		id = internalChild(p, i)
	}
}

// GetAt returns the value stored under key in the tree rooted at m, read
// through r, or ErrNotFound. A done ctx aborts the descent before the next
// page read. The value aliases the leaf page it was read from: through a
// pinned view or the pool that page is immutable; through a Pager it is
// good until the caller next writes the tree.
func GetAt(ctx context.Context, r storage.PageReader, m Meta, key uint64) ([]byte, error) {
	p, err := findLeafAt(ctx, r, m, key)
	if err != nil {
		return nil, err
	}
	n := pageCount(p)
	i := leafSearch(p, n, key)
	if i < n && leafKey(p, i) == key {
		return leafValue(p, n, i)
	}
	return nil, ErrNotFound
}

// ScanAt calls fn for every (key, value) with lo <= key <= hi in the tree
// rooted at m, read through r, in ascending key order, until fn returns
// false or the range is exhausted. The values alias their leaf pages (see
// GetAt).
func ScanAt(r storage.PageReader, m Meta, lo, hi uint64, fn func(key uint64, val []byte) bool) error {
	p, err := findLeafAt(context.Background(), r, m, lo)
	if err != nil {
		return err
	}
	for {
		n := pageCount(p)
		for i := leafSearch(p, n, lo); i < n; i++ {
			k := leafKey(p, i)
			if k > hi {
				return nil
			}
			v, err := leafValue(p, n, i)
			if err != nil {
				return err
			}
			if !fn(k, v) {
				return nil
			}
		}
		next := leafNext(p)
		if next == storage.InvalidPageID {
			return nil
		}
		if p, err = r.Get(next); err != nil {
			return err
		}
	}
}

// --- put ------------------------------------------------------------------

type splitResult struct {
	split   bool
	sepKey  uint64 // first key of the new right sibling
	newPage storage.PageID
}

// PutAt stores value under key in the tree rooted at *m through p,
// replacing what the key held, and updates *m in place (root, height,
// counts). A value that no longer fits its leaf splits it. Against a
// WriteBatch every modified page is a private copy, so a failed put leaves
// the published tree untouched.
func PutAt(p storage.Pager, m *Meta, key uint64, value []byte) error {
	if len(value) > MaxValueSize {
		return fmt.Errorf("%w: %d bytes under key %d, limit %d", ErrValueTooLarge, len(value), key, MaxValueSize)
	}
	res, added, err := putIntoAt(p, m, m.Root, Entry{key, value})
	if err != nil {
		return err
	}
	if res.split {
		newRoot, err := newPageAt(p, m, kindInternal)
		if err != nil {
			return err
		}
		pg, err := p.Get(newRoot)
		if err != nil {
			return err
		}
		setCount(pg, 1)
		setInternalKey(pg, 0, res.sepKey)
		setInternalChild(pg, 0, m.Root)
		setInternalChild(pg, 1, res.newPage)
		p.MarkDirty(newRoot)
		m.Root = newRoot
		m.Height++
	}
	if added {
		m.Count++
	}
	return nil
}

// putIntoAt reports, beside a split of page id, whether e's key is new.
func putIntoAt(p storage.Pager, m *Meta, id storage.PageID, e Entry) (splitResult, bool, error) {
	pg, err := p.Get(id)
	if err != nil {
		return splitResult{}, false, err
	}
	if pageKind(pg) == kindLeaf {
		return putLeafAt(p, m, pg, e)
	}
	n := pageCount(pg)
	i := sort.Search(n, func(i int) bool { return internalKey(pg, i) > e.Key })
	res, added, err := putIntoAt(p, m, internalChild(pg, i), e)
	if err != nil || !res.split {
		return splitResult{}, added, err
	}
	// Re-fetch: the child put may have evicted our frame.
	if pg, err = p.Get(id); err != nil {
		return splitResult{}, false, err
	}
	res, err = insertInternalKeyAt(p, m, id, pg, res.sepKey, res.newPage)
	return res, added, err
}

func putLeafAt(p storage.Pager, m *Meta, pg *storage.Page, e Entry) (splitResult, bool, error) {
	entries, err := leafEntries(pg)
	if err != nil {
		return splitResult{}, false, err
	}
	i := leafSearch(pg, len(entries), e.Key)
	added := i == len(entries) || entries[i].Key != e.Key
	if added {
		entries = slices.Insert(entries, i, e)
	} else {
		entries[i] = e
	}
	total := 0
	for _, x := range entries {
		total += entrySize(x)
	}
	id := pg.ID()
	if total <= leafSpace {
		writeLeaf(pg, entries, leafNext(pg))
		p.MarkDirty(id)
		return splitResult{}, added, nil
	}
	// Split where the left half first reaches half the bytes. No entry
	// exceeds a quarter of leafSpace and total is under five quarters, so
	// both halves are non-empty and fit.
	cut, left := 0, 0
	for left < total/2 {
		left += entrySize(entries[cut])
		cut++
	}
	rightID, err := newPageAt(p, m, kindLeaf)
	if err != nil {
		return splitResult{}, false, err
	}
	// Re-fetch both pages (allocation may evict). The entries still alias
	// the page object read above, which eviction leaves intact.
	next := leafNext(pg)
	right, err := p.Get(rightID)
	if err != nil {
		return splitResult{}, false, err
	}
	writeLeaf(right, entries[cut:], next)
	p.MarkDirty(rightID)
	if pg, err = p.Get(id); err != nil {
		return splitResult{}, false, err
	}
	writeLeaf(pg, entries[:cut], rightID)
	p.MarkDirty(id)
	return splitResult{split: true, sepKey: entries[cut].Key, newPage: rightID}, added, nil
}

func insertInternalKeyAt(p storage.Pager, m *Meta, id storage.PageID, pg *storage.Page, sep uint64, newChild storage.PageID) (splitResult, error) {
	n := pageCount(pg)
	i := sort.Search(n, func(i int) bool { return internalKey(pg, i) > sep })
	if n < MaxInternalKeys {
		for j := n; j > i; j-- {
			setInternalKey(pg, j, internalKey(pg, j-1))
		}
		for j := n + 1; j > i+1; j-- {
			setInternalChild(pg, j, internalChild(pg, j-1))
		}
		setInternalKey(pg, i, sep)
		setInternalChild(pg, i+1, newChild)
		setCount(pg, n+1)
		p.MarkDirty(id)
		return splitResult{}, nil
	}
	// Split internal node.
	keys := make([]uint64, 0, n+1)
	children := make([]storage.PageID, 0, n+2)
	for j := 0; j < n; j++ {
		keys = append(keys, internalKey(pg, j))
	}
	for j := 0; j <= n; j++ {
		children = append(children, internalChild(pg, j))
	}
	keys = append(keys, 0)
	copy(keys[i+1:], keys[i:])
	keys[i] = sep
	children = append(children, storage.InvalidPageID)
	copy(children[i+2:], children[i+1:])
	children[i+1] = newChild

	rightID, err := newPageAt(p, m, kindInternal)
	if err != nil {
		return splitResult{}, err
	}
	left, err := p.Get(id)
	if err != nil {
		return splitResult{}, err
	}
	total := n + 1
	mid := total / 2 // keys[mid] moves up
	setCount(left, mid)
	for j := 0; j < mid; j++ {
		setInternalKey(left, j, keys[j])
	}
	for j := 0; j <= mid; j++ {
		setInternalChild(left, j, children[j])
	}
	p.MarkDirty(id)

	right, err := p.Get(rightID)
	if err != nil {
		return splitResult{}, err
	}
	rn := total - mid - 1
	setCount(right, rn)
	for j := 0; j < rn; j++ {
		setInternalKey(right, j, keys[mid+1+j])
	}
	for j := 0; j <= rn; j++ {
		setInternalChild(right, j, children[mid+1+j])
	}
	p.MarkDirty(rightID)
	return splitResult{split: true, sepKey: keys[mid], newPage: rightID}, nil
}

// --- bulk load --------------------------------------------------------------

// BulkLoad builds a tree from entries, which must be sorted by key with no
// duplicates. This is the construction path of the inverted indexes.
// Leaves are packed by bytes, each taking entries until the next one does
// not fit: the index is read far more than it is written, and a probe's
// neighbours in key order are the next probes of the same query, so what
// shares a leaf is what saves a page read. The first insert into a leaf
// splits it.
func BulkLoad(pool *storage.BufferPool, entries []Entry) (*Tree, error) {
	for i, e := range entries {
		if i > 0 && e.Key <= entries[i-1].Key {
			return nil, fmt.Errorf("btree: bulk load input not strictly sorted at %d", i)
		}
		if len(e.Value) > MaxValueSize {
			return nil, fmt.Errorf("%w: %d bytes under key %d, limit %d", ErrValueTooLarge, len(e.Value), e.Key, MaxValueSize)
		}
	}
	t := &Tree{pool: pool}
	if len(entries) == 0 {
		return New(pool)
	}

	// Fill leaves left to right.
	type nodeRef struct {
		id       storage.PageID
		firstKey uint64
	}
	var level []nodeRef
	var prevLeaf storage.PageID = storage.InvalidPageID
	for start, end := 0, 0; start < len(entries); start = end {
		for used := 0; end < len(entries) && used+entrySize(entries[end]) <= leafSpace; end++ {
			used += entrySize(entries[end])
		}
		id, err := newPageAt(pool, &t.m, kindLeaf)
		if err != nil {
			return nil, err
		}
		p, err := pool.Get(id)
		if err != nil {
			return nil, err
		}
		writeLeaf(p, entries[start:end], storage.InvalidPageID)
		pool.MarkDirty(id)
		if prevLeaf != storage.InvalidPageID {
			pp, err := pool.Get(prevLeaf)
			if err != nil {
				return nil, err
			}
			setLeafNext(pp, id)
			pool.MarkDirty(prevLeaf)
		}
		prevLeaf = id
		level = append(level, nodeRef{id, entries[start].Key})
	}
	t.m.Height = 1

	// Build internal levels until a single root remains.
	perNode := MaxInternalKeys * 3 / 4
	if perNode < 2 {
		perNode = 2
	}
	for len(level) > 1 {
		var next []nodeRef
		for start, end := 0, 0; start < len(level); start = end {
			end = start + perNode + 1
			if end > len(level) {
				end = len(level)
			}
			// Avoid a trailing group with a single child.
			if end < len(level) && len(level)-end == 1 {
				end--
			}
			id, err := newPageAt(pool, &t.m, kindInternal)
			if err != nil {
				return nil, err
			}
			p, err := pool.Get(id)
			if err != nil {
				return nil, err
			}
			nk := end - start - 1
			setCount(p, nk)
			for j := 0; j < nk; j++ {
				setInternalKey(p, j, level[start+1+j].firstKey)
			}
			for j := 0; j <= nk; j++ {
				setInternalChild(p, j, level[start+j].id)
			}
			pool.MarkDirty(id)
			next = append(next, nodeRef{id, level[start].firstKey})
		}
		level = next
		t.m.Height++
	}
	t.m.Root = level[0].id
	t.m.Count = len(entries)
	if err := pool.Flush(); err != nil {
		return nil, err
	}
	return t, nil
}
