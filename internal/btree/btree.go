// Package btree implements a disk-resident B+-tree with uint64 keys and
// uint64 values, stored in 4KB pages behind a buffer pool. It is the spine
// of every inverted file in the library: the key of an edge is the Z-order
// code of its center point (disambiguated with the edge ID) and the value
// points at the posting-list page chain for that edge.
//
// The tree supports point lookup, ordered range scans, single insert and
// sorted bulk loading (the construction path of the indexes).
//
// Tree state is split in two: the immutable Meta value (root page, height,
// counts) and the page source the operation runs against. Every operation
// exists in a form parameterized over storage.PageReader / storage.Pager —
// GetAt, ScanAt, InsertAt, UpdateAt — so reads can run against an
// LSN-pinned storage.PageView and mutations against a copy-on-write
// storage.WriteBatch (the MVCC query path), while the Tree handle binds a
// Meta to a concrete buffer pool for the single-threaded build path and
// tests.
package btree

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"dsks/internal/storage"
)

// Page layouts.
//
//	common header: kind uint16 (1 = leaf, 2 = internal), count uint16
//	leaf:    next  uint32 (PageID of right sibling), count × (key u64, val u64)
//	internal: count × key u64, (count+1) × child u32
const (
	kindLeaf     = 1
	kindInternal = 2

	headerSize = 4
	leafMeta   = headerSize + 4
	leafEntry  = 16
	// MaxLeafEntries is the number of (key, value) pairs a leaf page holds.
	MaxLeafEntries = (storage.PageSize - leafMeta) / leafEntry

	internalMeta = headerSize
	// MaxInternalKeys is the number of separator keys an internal page holds.
	// Each key is 8 bytes and each of the count+1 children is 4 bytes.
	MaxInternalKeys = (storage.PageSize - internalMeta - 4) / 12
)

// ErrNotFound is returned by Get for absent keys.
var ErrNotFound = errors.New("btree: key not found")

// ErrDuplicate is returned by Insert when the key already exists.
var ErrDuplicate = errors.New("btree: duplicate key")

// Meta is the versioned root state of a tree: everything needed to read or
// mutate it besides the pages themselves. Meta is a small value; copying
// it is how the MVCC layer snapshots a tree — a mutation through InsertAt
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

// Get returns the value stored under key, or ErrNotFound.
func (t *Tree) Get(key uint64) (uint64, error) {
	return GetAt(context.Background(), t.pool, t.m, key)
}

// GetCtx is Get with cancellation: a done ctx aborts the root-to-leaf
// descent before the next page read.
func (t *Tree) GetCtx(ctx context.Context, key uint64) (uint64, error) {
	return GetAt(ctx, t.pool, t.m, key)
}

// Update replaces the value stored under an existing key, or returns
// ErrNotFound. The tree shape is unchanged.
func (t *Tree) Update(key, value uint64) error {
	return UpdateAt(t.pool, t.m, key, value)
}

// Scan calls fn for every (key, value) with lo <= key <= hi, in ascending
// key order, until fn returns false or the range is exhausted.
func (t *Tree) Scan(lo, hi uint64, fn func(key, val uint64) bool) error {
	return ScanAt(t.pool, t.m, lo, hi, fn)
}

// Insert stores (key, value); inserting an existing key fails with
// ErrDuplicate.
func (t *Tree) Insert(key, value uint64) error {
	return InsertAt(t.pool, &t.m, key, value)
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

func leafKey(p *storage.Page, i int) uint64 { return p.Uint64(leafMeta + i*leafEntry) }
func leafVal(p *storage.Page, i int) uint64 { return p.Uint64(leafMeta + i*leafEntry + 8) }
func setLeafKV(p *storage.Page, i int, k, v uint64) {
	p.PutUint64(leafMeta+i*leafEntry, k)
	p.PutUint64(leafMeta+i*leafEntry+8, v)
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
// page read.
func GetAt(ctx context.Context, r storage.PageReader, m Meta, key uint64) (uint64, error) {
	p, err := findLeafAt(ctx, r, m, key)
	if err != nil {
		return 0, err
	}
	n := pageCount(p)
	i := sort.Search(n, func(i int) bool { return leafKey(p, i) >= key })
	if i < n && leafKey(p, i) == key {
		return leafVal(p, i), nil
	}
	return 0, ErrNotFound
}

// UpdateAt replaces the value stored under an existing key, or returns
// ErrNotFound. The tree shape (and thus Meta) is unchanged; against a
// WriteBatch the modified leaf becomes a copy-on-write version.
func UpdateAt(p storage.Pager, m Meta, key, value uint64) error {
	pg, err := findLeafAt(context.Background(), p, m, key)
	if err != nil {
		return err
	}
	n := pageCount(pg)
	i := sort.Search(n, func(i int) bool { return leafKey(pg, i) >= key })
	if i >= n || leafKey(pg, i) != key {
		return fmt.Errorf("%w: %d", ErrNotFound, key)
	}
	setLeafKV(pg, i, key, value)
	p.MarkDirty(pg.ID())
	return nil
}

// ScanAt calls fn for every (key, value) with lo <= key <= hi in the tree
// rooted at m, read through r, in ascending key order, until fn returns
// false or the range is exhausted.
func ScanAt(r storage.PageReader, m Meta, lo, hi uint64, fn func(key, val uint64) bool) error {
	p, err := findLeafAt(context.Background(), r, m, lo)
	if err != nil {
		return err
	}
	for {
		n := pageCount(p)
		i := sort.Search(n, func(i int) bool { return leafKey(p, i) >= lo })
		for ; i < n; i++ {
			k := leafKey(p, i)
			if k > hi {
				return nil
			}
			if !fn(k, leafVal(p, i)) {
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

// --- insert ---------------------------------------------------------------

type splitResult struct {
	split   bool
	sepKey  uint64 // first key of the new right sibling
	newPage storage.PageID
}

// InsertAt stores (key, value) in the tree rooted at *m through p,
// updating *m in place (root, height, counts); inserting an existing key
// fails with ErrDuplicate. Against a WriteBatch every modified page is a
// private copy, so a failed insert leaves the published tree untouched.
func InsertAt(p storage.Pager, m *Meta, key, value uint64) error {
	res, err := insertIntoAt(p, m, m.Root, key, value)
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
	m.Count++
	return nil
}

func insertIntoAt(p storage.Pager, m *Meta, id storage.PageID, key, value uint64) (splitResult, error) {
	pg, err := p.Get(id)
	if err != nil {
		return splitResult{}, err
	}
	if pageKind(pg) == kindLeaf {
		return insertLeafAt(p, m, id, key, value)
	}
	n := pageCount(pg)
	i := sort.Search(n, func(i int) bool { return internalKey(pg, i) > key })
	child := internalChild(pg, i)
	res, err := insertIntoAt(p, m, child, key, value)
	if err != nil || !res.split {
		return splitResult{}, err
	}
	// Re-fetch: the child insert may have evicted our frame.
	pg, err = p.Get(id)
	if err != nil {
		return splitResult{}, err
	}
	return insertInternalKeyAt(p, m, id, pg, res.sepKey, res.newPage)
}

func insertLeafAt(p storage.Pager, m *Meta, id storage.PageID, key, value uint64) (splitResult, error) {
	pg, err := p.Get(id)
	if err != nil {
		return splitResult{}, err
	}
	n := pageCount(pg)
	i := sort.Search(n, func(i int) bool { return leafKey(pg, i) >= key })
	if i < n && leafKey(pg, i) == key {
		return splitResult{}, fmt.Errorf("%w: %d", ErrDuplicate, key)
	}
	if n < MaxLeafEntries {
		for j := n; j > i; j-- {
			setLeafKV(pg, j, leafKey(pg, j-1), leafVal(pg, j-1))
		}
		setLeafKV(pg, i, key, value)
		setCount(pg, n+1)
		p.MarkDirty(id)
		return splitResult{}, nil
	}
	// Split: gather all n+1 entries, write halves.
	keys := make([]uint64, 0, n+1)
	vals := make([]uint64, 0, n+1)
	for j := 0; j < n; j++ {
		keys = append(keys, leafKey(pg, j))
		vals = append(vals, leafVal(pg, j))
	}
	keys = append(keys, 0)
	vals = append(vals, 0)
	copy(keys[i+1:], keys[i:])
	copy(vals[i+1:], vals[i:])
	keys[i], vals[i] = key, value

	rightID, err := newPageAt(p, m, kindLeaf)
	if err != nil {
		return splitResult{}, err
	}
	// Re-fetch both pages (allocation may evict).
	left, err := p.Get(id)
	if err != nil {
		return splitResult{}, err
	}
	mid := (n + 1) / 2
	oldNext := leafNext(left)
	setCount(left, mid)
	for j := 0; j < mid; j++ {
		setLeafKV(left, j, keys[j], vals[j])
	}
	setLeafNext(left, rightID)
	p.MarkDirty(id)

	right, err := p.Get(rightID)
	if err != nil {
		return splitResult{}, err
	}
	setCount(right, n+1-mid)
	for j := mid; j <= n; j++ {
		setLeafKV(right, j-mid, keys[j], vals[j])
	}
	setLeafNext(right, oldNext)
	p.MarkDirty(rightID)
	return splitResult{split: true, sepKey: keys[mid], newPage: rightID}, nil
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

// Entry is a (key, value) pair for bulk loading.
type Entry struct {
	Key   uint64
	Value uint64
}

// BulkLoad builds a tree from entries, which must be sorted by key with no
// duplicates. This is the construction path of the inverted indexes.
func BulkLoad(pool *storage.BufferPool, entries []Entry) (*Tree, error) {
	for i := 1; i < len(entries); i++ {
		if entries[i].Key <= entries[i-1].Key {
			return nil, fmt.Errorf("btree: bulk load input not strictly sorted at %d", i)
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
	perLeaf := MaxLeafEntries * 3 / 4 // leave slack for future inserts
	if perLeaf < 1 {
		perLeaf = 1
	}
	var prevLeaf storage.PageID = storage.InvalidPageID
	for start := 0; start < len(entries); start += perLeaf {
		end := start + perLeaf
		if end > len(entries) {
			end = len(entries)
		}
		id, err := newPageAt(pool, &t.m, kindLeaf)
		if err != nil {
			return nil, err
		}
		p, err := pool.Get(id)
		if err != nil {
			return nil, err
		}
		setCount(p, end-start)
		for j := start; j < end; j++ {
			setLeafKV(p, j-start, entries[j].Key, entries[j].Value)
		}
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
