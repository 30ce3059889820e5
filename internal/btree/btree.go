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
// Only the leaves are pages. The level above them is a directory held in
// memory, as CCAM keeps its node-to-page map: the low key and the page of
// every leaf, in key order. A lookup binary-searches it and reads one
// page, so the leaves a query reads never evict an inner page it would
// read next.
//
// Tree state is split in two: the immutable Meta value (the directory and
// the counts) and the page source the operation runs against. Every
// operation exists in a form parameterized over storage.PageReader /
// storage.Pager — GetAt, ScanAt, PutAt — so reads can run against an
// LSN-pinned storage.PageView and mutations against a copy-on-write
// storage.WriteBatch (the MVCC query path), while the Tree handle binds a
// Meta to a concrete buffer pool for the single-threaded build path and
// tests.
package btree

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"dsks/internal/storage"
)

// Leaf layout:
//
//	header:   kind uint16 (1 = leaf), count uint16
//	slots:    count × (key u64, end u16) in key order
//	cells:    value i occupies [end(i-1), end(i)) of the cell area, with
//	          end(-1) = 0. Slots and cells are contiguous, so a leaf is
//	          rewritten whole when an entry is added, grows or shrinks.
const (
	kindLeaf = 1

	leafMeta = 4
	slotSize = 10
	// leafSpace is what a leaf has for slots and cells together.
	leafSpace = storage.PageSize - leafMeta
	// MaxValueSize bounds a value so that any leaf has room for four
	// entries: a split then always finds a cut that leaves both halves
	// within a page, however the sizes fall.
	MaxValueSize = leafSpace/4 - slotSize

	// dirEntrySize is what the directory holds per leaf: its low key and
	// its page.
	dirEntrySize = 8 + 4
)

// ErrNotFound is returned by Get for absent keys.
var ErrNotFound = errors.New("btree: key not found")

// ErrValueTooLarge is returned by Put and BulkLoad for a value longer than
// MaxValueSize.
var ErrValueTooLarge = errors.New("btree: value exceeds MaxValueSize")

// Meta is the versioned root state of a tree: everything needed to read or
// mutate it besides the pages themselves. Copying it is how the MVCC layer
// snapshots a tree. The directory slices of a Meta are never written: a
// put through PutAt that splits a leaf gives the caller's copy new ones,
// so every previously published Meta keeps reading its own leaves.
type Meta struct {
	// Lows and Leaves are the leaf directory, in key order: Leaves[i] is
	// the page of leaf i, which holds the keys in [Lows[i], Lows[i+1]).
	// Lows[0] is 0 and every other Lows[i] is its leaf's first key, since
	// no key is ever removed from a tree. A Meta made by NewAt or BulkLoad
	// lists at least one leaf.
	Lows   []uint64
	Leaves []storage.PageID
	Count  int // number of keys stored
}

// SizeBytes returns the tree's footprint: a page per leaf, and the
// directory's low key and page number per leaf.
func (m Meta) SizeBytes() int64 { return int64(len(m.Leaves)) * (storage.PageSize + dirEntrySize) }

// leafFor returns the directory slot of the leaf that holds or would hold
// key.
func (m Meta) leafFor(key uint64) int {
	i, found := slices.BinarySearch(m.Lows, key)
	if !found {
		i-- // Lows[0] is 0, so a key not found lies past slot 0
	}
	return i
}

// Tree binds a Meta to a buffer pool: the handle of the build path and of
// single-threaded callers. Concurrent readers use GetAt/ScanAt with a
// pinned storage.PageView and a published Meta instead.
type Tree struct {
	pool *storage.BufferPool
	m    Meta
}

// New creates an empty tree (a single empty leaf).
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

// NumPages returns the number of pages the tree occupies: its leaves,
// one to a directory slot.
func (t *Tree) NumPages() int { return len(t.m.Leaves) }

// SizeBytes returns the tree's footprint (see Meta.SizeBytes).
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

// NewAt writes an empty tree (a single empty leaf) through p and returns
// its Meta.
func NewAt(p storage.Pager) (Meta, error) {
	leaf, err := newLeafAt(p)
	if err != nil {
		return Meta{}, err
	}
	return Meta{Lows: []uint64{0}, Leaves: []storage.PageID{leaf}}, nil
}

func newLeafAt(p storage.Pager) (storage.PageID, error) {
	pg, err := p.Allocate()
	if err != nil {
		return storage.InvalidPageID, err
	}
	pg.PutUint16(0, kindLeaf)
	pg.PutUint16(2, 0)
	p.MarkDirty(pg.ID())
	return pg.ID(), nil
}

// --- page accessors -------------------------------------------------------

func pageKind(p *storage.Page) uint16 { return p.Uint16(0) }
func pageCount(p *storage.Page) int   { return int(p.Uint16(2)) }
func setCount(p *storage.Page, n int) { p.PutUint16(2, uint16(n)) }

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
func writeLeaf(p *storage.Page, entries []Entry) {
	var img storage.Page
	img.PutUint16(0, kindLeaf)
	setCount(&img, len(entries))
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

// --- lookup ---------------------------------------------------------------

// leafAt reads leaf i of the directory through r: the one page request of
// a lookup. A done ctx aborts it before the read.
func leafAt(ctx context.Context, r storage.PageReader, m Meta, i int) (*storage.Page, error) {
	p, err := r.GetCtx(ctx, m.Leaves[i])
	if err != nil {
		return nil, err
	}
	if k := pageKind(p); k != kindLeaf {
		return nil, fmt.Errorf("btree: directory slot %d names page %d of kind %d: %w", i, p.ID(), k, storage.ErrCorruptPage)
	}
	return p, nil
}

// GetAt returns the value stored under key in the tree m, read through r,
// or ErrNotFound. A done ctx aborts it before the page read. The value
// aliases the leaf page it was read from: through a pinned view or the
// pool that page is immutable; through a Pager it is good until the
// caller next writes the tree.
func GetAt(ctx context.Context, r storage.PageReader, m Meta, key uint64) ([]byte, error) {
	p, err := leafAt(ctx, r, m, m.leafFor(key))
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
// m, read through r, in ascending key order, until fn returns false or the
// range is exhausted. It reads only the leaves whose key ranges meet
// [lo, hi]. The values alias their leaf pages (see GetAt).
func ScanAt(r storage.PageReader, m Meta, lo, hi uint64, fn func(key uint64, val []byte) bool) error {
	for i := m.leafFor(lo); i < len(m.Leaves) && m.Lows[i] <= hi; i++ {
		p, err := leafAt(context.Background(), r, m, i)
		if err != nil {
			return err
		}
		n := pageCount(p)
		for j := leafSearch(p, n, lo); j < n; j++ {
			k := leafKey(p, j)
			if k > hi {
				return nil
			}
			v, err := leafValue(p, n, j)
			if err != nil {
				return err
			}
			if !fn(k, v) {
				return nil
			}
		}
	}
	return nil
}

// --- put ------------------------------------------------------------------

// PutAt stores value under key in the tree *m through p, replacing what
// the key held, and updates *m in place (directory, counts). A value that
// no longer fits its leaf splits it, and *m gets a new directory with the
// right half in it; the old slices are left as they were, for whoever
// else holds them. Against a WriteBatch every modified page is a private
// copy, so a failed put leaves the published tree untouched.
func PutAt(p storage.Pager, m *Meta, key uint64, value []byte) error {
	if len(value) > MaxValueSize {
		return fmt.Errorf("%w: %d bytes under key %d, limit %d", ErrValueTooLarge, len(value), key, MaxValueSize)
	}
	i := m.leafFor(key)
	pg, err := leafAt(context.Background(), p, *m, i)
	if err != nil {
		return err
	}
	right, added, err := putLeafAt(p, pg, Entry{key, value})
	if err != nil {
		return err
	}
	if right.page != storage.InvalidPageID {
		m.Lows = inserted(m.Lows, i+1, right.low)
		m.Leaves = inserted(m.Leaves, i+1, right.page)
	}
	if added {
		m.Count++
	}
	return nil
}

// inserted returns a new slice holding s with v at index i; s itself is
// not written.
func inserted[T any](s []T, i int, v T) []T {
	out := make([]T, len(s)+1)
	copy(out, s[:i])
	out[i] = v
	copy(out[i+1:], s[i:])
	return out
}

// dirEntry is a directory slot: a leaf's low key and its page.
type dirEntry struct {
	low  uint64
	page storage.PageID
}

// putLeafAt stores e in leaf pg and reports whether e's key is new. When e
// no longer fits, the leaf splits and the right half's slot comes back;
// otherwise the zero slot, whose page is InvalidPageID.
func putLeafAt(p storage.Pager, pg *storage.Page, e Entry) (dirEntry, bool, error) {
	entries, err := leafEntries(pg)
	if err != nil {
		return dirEntry{}, false, err
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
		writeLeaf(pg, entries)
		p.MarkDirty(id)
		return dirEntry{}, added, nil
	}
	// Split where the left half first reaches half the bytes. No entry
	// exceeds a quarter of leafSpace and total is under five quarters, so
	// both halves are non-empty and fit.
	cut, left := 0, 0
	for left < total/2 {
		left += entrySize(entries[cut])
		cut++
	}
	rightID, err := newLeafAt(p)
	if err != nil {
		return dirEntry{}, false, err
	}
	// Re-fetch both pages (allocation may evict). The entries still alias
	// the page object read above, which eviction leaves intact.
	right, err := p.Get(rightID)
	if err != nil {
		return dirEntry{}, false, err
	}
	writeLeaf(right, entries[cut:])
	p.MarkDirty(rightID)
	if pg, err = p.Get(id); err != nil {
		return dirEntry{}, false, err
	}
	writeLeaf(pg, entries[:cut])
	p.MarkDirty(id)
	return dirEntry{low: entries[cut].Key, page: rightID}, added, nil
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
	if len(entries) == 0 {
		return New(pool)
	}
	t := &Tree{pool: pool}
	for start, end := 0, 0; start < len(entries); start = end {
		for used := 0; end < len(entries) && used+entrySize(entries[end]) <= leafSpace; end++ {
			used += entrySize(entries[end])
		}
		id, err := newLeafAt(pool)
		if err != nil {
			return nil, err
		}
		p, err := pool.Get(id)
		if err != nil {
			return nil, err
		}
		writeLeaf(p, entries[start:end])
		pool.MarkDirty(id)
		low := entries[start].Key
		if start == 0 {
			low = 0
		}
		t.m.Lows = append(t.m.Lows, low)
		t.m.Leaves = append(t.m.Leaves, id)
	}
	t.m.Count = len(entries)
	if err := pool.Flush(); err != nil {
		return nil, err
	}
	return t, nil
}
