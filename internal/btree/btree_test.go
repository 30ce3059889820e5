package btree

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"maps"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"dsks/internal/fault"
	"dsks/internal/storage"
)

func newPool(frames int) *storage.BufferPool {
	return storage.NewBufferPool(storage.NewPageFile(), frames, nil)
}

// val is a value of n bytes that names its key and its length, so a value
// handed back under the wrong key or cut short is caught.
func val(key uint64, n int) []byte {
	out := make([]byte, n)
	var seed [10]byte
	binary.LittleEndian.PutUint64(seed[:], key)
	binary.LittleEndian.PutUint16(seed[8:], uint16(n))
	for i := range out {
		out[i] = seed[i%len(seed)] + byte(i/len(seed))
	}
	return out
}

// fixed is the 6-byte value of the fixed-width tests: with its slot an
// entry takes 16 bytes, 255 to a leaf.
func fixed(key uint64) []byte { return val(key, 6) }

const fixedPerLeaf = leafSpace / (slotSize + 6)

func mustGet(t testing.TB, tr *Tree, key uint64, want []byte) {
	t.Helper()
	got, err := tr.Get(key)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("Get(%d) = %d bytes %x, %v; want %d bytes %x", key, len(got), head(got), err, len(want), head(want))
	}
}

func head(b []byte) []byte { return b[:min(len(b), 12)] }

// leaves reads every leaf the directory lists, in directory order, and
// checks what the directory and every leaf must satisfy: one slot per
// leaf page, each page listed once; low keys ascending from 0, each
// leaf's first key its low key (but the first leaf's, whose bound is 0)
// and every key below the next leaf's low key; keys ascending within and
// across leaves; cells within the page; no empty leaf but a lone one.
func leaves(t testing.TB, r storage.PageReader, m Meta) [][]Entry {
	t.Helper()
	if len(m.Lows) != len(m.Leaves) || len(m.Leaves) == 0 {
		t.Fatalf("directory of %d low keys and %d pages", len(m.Lows), len(m.Leaves))
	}
	if m.Lows[0] != 0 {
		t.Fatalf("the first leaf's low key is %d, want 0", m.Lows[0])
	}
	listed := map[storage.PageID]int{}
	var out [][]Entry
	var last uint64
	seen := false
	for i, id := range m.Leaves {
		if j, dup := listed[id]; dup {
			t.Fatalf("directory slots %d and %d both name page %d", j, i, id)
		}
		listed[id] = i
		if i > 0 && m.Lows[i] <= m.Lows[i-1] {
			t.Fatalf("directory slot %d: low key %d after %d", i, m.Lows[i], m.Lows[i-1])
		}
		p, err := r.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		es, err := leafEntries(p)
		if err != nil {
			t.Fatal(err)
		}
		if len(es) == 0 && len(m.Leaves) > 1 {
			t.Fatalf("leaf %d (slot %d) is empty", id, i)
		}
		if i > 0 && len(es) > 0 && es[0].Key != m.Lows[i] {
			t.Fatalf("slot %d: leaf %d opens with key %d, the directory says %d", i, id, es[0].Key, m.Lows[i])
		}
		used := 0
		for _, e := range es {
			if seen && e.Key <= last {
				t.Fatalf("leaf %d: key %d after %d", id, e.Key, last)
			}
			if i+1 < len(m.Lows) && e.Key >= m.Lows[i+1] {
				t.Fatalf("leaf %d (slot %d) holds key %d, at or past the next leaf's low key %d", id, i, e.Key, m.Lows[i+1])
			}
			last, seen = e.Key, true
			used += entrySize(e)
		}
		if used > leafSpace {
			t.Fatalf("leaf %d holds %d bytes of %d", id, used, leafSpace)
		}
		cp := make([]Entry, len(es))
		for i, e := range es {
			cp[i] = Entry{e.Key, append([]byte(nil), e.Value...)}
		}
		out = append(out, cp)
	}
	return out
}

// checkModel compares the whole tree with a sorted map: a full scan, a
// point lookup of every key and of the gaps beside it, Count, and the leaf
// invariants.
func checkModel(t testing.TB, p storage.PageReader, m Meta, model map[uint64][]byte) {
	t.Helper()
	if m.Count != len(model) {
		t.Fatalf("Count %d, model holds %d", m.Count, len(model))
	}
	keys := make([]uint64, 0, len(model))
	for k := range model {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	i := 0
	if err := ScanAt(p, m, 0, ^uint64(0), func(k uint64, v []byte) bool {
		if i >= len(keys) || k != keys[i] || !bytes.Equal(v, model[k]) {
			t.Fatalf("scan entry %d = (%d, %d bytes), want key %v", i, k, len(v), keys[min(i, len(keys)-1)])
		}
		i++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if i != len(keys) {
		t.Fatalf("scan saw %d keys, model holds %d", i, len(keys))
	}
	for _, k := range keys {
		got, err := GetAt(context.Background(), p, m, k)
		if err != nil || !bytes.Equal(got, model[k]) {
			t.Fatalf("Get(%d) = %d bytes, %v; want %d bytes", k, len(got), err, len(model[k]))
		}
		for _, gap := range []uint64{k - 1, k + 1} {
			if _, in := model[gap]; !in {
				if _, err := GetAt(context.Background(), p, m, gap); !errors.Is(err, ErrNotFound) {
					t.Fatalf("Get(%d) beside key %d = %v, want ErrNotFound", gap, k, err)
				}
			}
		}
	}
	n := 0
	for _, l := range leaves(t, p, m) {
		n += len(l)
	}
	if n != len(model) {
		t.Fatalf("the leaves hold %d keys, model %d", n, len(model))
	}
}

func TestEmptyTree(t *testing.T) {
	tr, err := New(newPool(8))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 0 || tr.NumPages() != 1 {
		t.Fatalf("empty tree: len=%d leaves=%d", tr.Len(), tr.NumPages())
	}
	if _, err := tr.Get(42); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get on empty = %v", err)
	}
	called := false
	if err := tr.Scan(0, ^uint64(0), func(k, size uint64) bool { called = true; return true }); err != nil {
		t.Fatal(err)
	}
	if called {
		t.Error("Scan on empty tree produced entries")
	}
}

func TestInsertGetSmall(t *testing.T) {
	tr, err := New(newPool(16))
	if err != nil {
		t.Fatal(err)
	}
	keys := []uint64{5, 1, 9, 3, 7}
	for _, k := range keys {
		if err := tr.Put(k, val(k, int(k)*10)); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range keys {
		mustGet(t, tr, k, val(k, int(k)*10))
	}
	if _, err := tr.Get(2); !errors.Is(err, ErrNotFound) {
		t.Error("missing key found")
	}
	// A second Put of a key replaces its value and adds no key; the
	// empty value is a value.
	if err := tr.Put(5, nil); err != nil {
		t.Fatal(err)
	}
	mustGet(t, tr, 5, nil)
	if err := tr.Put(5, val(5, 700)); err != nil {
		t.Fatal(err)
	}
	mustGet(t, tr, 5, val(5, 700))
	mustGet(t, tr, 7, val(7, 70))
	if tr.Len() != 5 {
		t.Errorf("Len = %d", tr.Len())
	}
}

func TestPutRejectsOversizedValue(t *testing.T) {
	tr, err := New(newPool(8))
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Put(1, make([]byte, MaxValueSize)); err != nil {
		t.Fatalf("a value of MaxValueSize: %v", err)
	}
	if err := tr.Put(2, make([]byte, MaxValueSize+1)); !errors.Is(err, ErrValueTooLarge) {
		t.Fatalf("a value one byte over = %v, want ErrValueTooLarge", err)
	}
	if _, err := BulkLoad(newPool(8), []Entry{{1, make([]byte, MaxValueSize+1)}}); !errors.Is(err, ErrValueTooLarge) {
		t.Fatalf("BulkLoad of a value one byte over = %v, want ErrValueTooLarge", err)
	}
	if tr.Len() != 1 {
		t.Errorf("Len = %d after a rejected put", tr.Len())
	}
}

func TestInsertManyWithSplits(t *testing.T) {
	tr, err := New(newPool(64))
	if err != nil {
		t.Fatal(err)
	}
	const n = 5000 // forces many leaf splits
	perm := rand.New(rand.NewSource(1)).Perm(n)
	for _, i := range perm {
		if err := tr.Put(uint64(i)*3, val(uint64(i), i%90)); err != nil {
			t.Fatal(err)
		}
	}
	if tr.NumPages() < 2 {
		t.Errorf("expected splits, %d leaves", tr.NumPages())
	}
	for i := 0; i < n; i++ {
		mustGet(t, tr, uint64(i)*3, val(uint64(i), i%90))
	}
	// Keys in between must be absent.
	for i := 0; i < 100; i++ {
		if _, err := tr.Get(uint64(i)*3 + 1); !errors.Is(err, ErrNotFound) {
			t.Fatalf("phantom key %d", i*3+1)
		}
	}
}

func TestScanOrderAndRange(t *testing.T) {
	pool := newPool(64)
	tr, err := New(pool)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	keys := map[uint64]bool{}
	for len(keys) < 2000 {
		keys[uint64(rng.Intn(1<<20))] = true
	}
	var sorted []uint64
	for k := range keys {
		sorted = append(sorted, k)
		if err := tr.Put(k, val(k, int(k%40))); err != nil {
			t.Fatal(err)
		}
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })

	// Full scan yields all keys in order, with their values.
	var got []uint64
	if err := ScanAt(pool, tr.Meta(), 0, ^uint64(0), func(k uint64, v []byte) bool {
		if !bytes.Equal(v, val(k, int(k%40))) {
			t.Fatalf("value mismatch for %d", k)
		}
		got = append(got, k)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(sorted) {
		t.Fatalf("scan found %d keys, want %d", len(got), len(sorted))
	}
	for i := range got {
		if got[i] != sorted[i] {
			t.Fatalf("scan order broken at %d", i)
		}
	}

	// Bounded range scan; the handle's Scan reports value sizes.
	lo, hi := sorted[500], sorted[700]
	count := 0
	if err := tr.Scan(lo, hi, func(k, size uint64) bool {
		if size != k%40 {
			t.Fatalf("Scan reports %d bytes under %d, want %d", size, k, k%40)
		}
		count++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if count != 201 {
		t.Errorf("range scan found %d keys, want 201", count)
	}

	// Early termination.
	count = 0
	if err := tr.Scan(0, ^uint64(0), func(k, size uint64) bool { count++; return count < 10 }); err != nil {
		t.Fatal(err)
	}
	if count != 10 {
		t.Errorf("early stop scanned %d", count)
	}
}

func TestBulkLoad(t *testing.T) {
	const n = 30000
	entries := make([]Entry, n)
	for i := range entries {
		entries[i] = Entry{Key: uint64(i) * 7, Value: val(uint64(i), i%64)}
	}
	pool := newPool(128)
	tr, err := BulkLoad(pool, entries)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != n {
		t.Fatalf("Len = %d", tr.Len())
	}
	for i := 0; i < n; i += 97 {
		mustGet(t, tr, uint64(i)*7, entries[i].Value)
	}
	if _, err := tr.Get(3); !errors.Is(err, ErrNotFound) {
		t.Error("phantom key in bulk-loaded tree")
	}
	// Scan must return exactly the loaded entries in order.
	i := 0
	if err := ScanAt(pool, tr.Meta(), 0, ^uint64(0), func(k uint64, v []byte) bool {
		if k != entries[i].Key || !bytes.Equal(v, entries[i].Value) {
			t.Fatalf("scan entry %d = (%d, %d bytes)", i, k, len(v))
		}
		i++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if i != n {
		t.Fatalf("scan visited %d entries", i)
	}
	// Packed by bytes: every leaf but the last has no room for the entry
	// that opens the next one.
	ls := leaves(t, pool, tr.Meta())
	for li := 0; li+1 < len(ls); li++ {
		used := 0
		for _, e := range ls[li] {
			used += entrySize(e)
		}
		if used+entrySize(ls[li+1][0]) <= leafSpace {
			t.Fatalf("leaf %d holds %d bytes and the next entry (%d) would have fitted", li, used, entrySize(ls[li+1][0]))
		}
	}
}

// TestBulkLoadLinksEveryLeaf: the directory a bulk load builds lists every
// leaf once, in key order, and nothing else: every page the load wrote is
// a listed leaf, each leaf's low key is its first key (0 for the first),
// and every key reads back through the directory.
func TestBulkLoadLinksEveryLeaf(t *testing.T) {
	for _, nLeaves := range []int{1, 2, 3, 257, 1000} {
		entries := make([]Entry, nLeaves*fixedPerLeaf)
		for i := range entries {
			entries[i] = Entry{Key: uint64(i)*3 + 5, Value: fixed(uint64(i))}
		}
		pool := newPool(256)
		tr, err := BulkLoad(pool, entries)
		if err != nil {
			t.Fatal(err)
		}
		m := tr.Meta()
		ls := leaves(t, pool, m)
		if len(ls) != nLeaves || tr.NumPages() != nLeaves || pool.File().NumPages() != nLeaves {
			t.Fatalf("%d entries of %d to a leaf: %d leaves listed, %d counted, %d pages written; want %d",
				len(entries), fixedPerLeaf, len(ls), tr.NumPages(), pool.File().NumPages(), nLeaves)
		}
		for i, l := range ls {
			if len(l) != fixedPerLeaf || (i > 0 && m.Lows[i] != entries[i*fixedPerLeaf].Key) {
				t.Fatalf("slot %d: %d entries under low key %d; want %d under %d", i, len(l), m.Lows[i], fixedPerLeaf, entries[i*fixedPerLeaf].Key)
			}
		}
		for _, e := range entries {
			mustGet(t, tr, e.Key, e.Value)
		}
		if _, err := tr.Get(0); !errors.Is(err, ErrNotFound) {
			t.Fatalf("Get(0) below every key = %v, want ErrNotFound", err)
		}
	}
}

func TestBulkLoadRejectsUnsorted(t *testing.T) {
	if _, err := BulkLoad(newPool(8), []Entry{{2, nil}, {1, nil}}); err == nil {
		t.Error("unsorted input accepted")
	}
	if _, err := BulkLoad(newPool(8), []Entry{{2, nil}, {2, []byte{1}}}); err == nil {
		t.Error("duplicate keys accepted")
	}
}

func TestBulkLoadEmpty(t *testing.T) {
	tr, err := BulkLoad(newPool(8), nil)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 0 {
		t.Errorf("Len = %d", tr.Len())
	}
}

func TestBulkLoadThenInsert(t *testing.T) {
	entries := make([]Entry, 1000)
	model := map[uint64][]byte{}
	for i := range entries {
		entries[i] = Entry{Key: uint64(i) * 2, Value: val(uint64(i), i%50)}
		model[entries[i].Key] = entries[i].Value
	}
	pool := newPool(64)
	tr, err := BulkLoad(pool, entries)
	if err != nil {
		t.Fatal(err)
	}
	// Odd keys go into the bulk-loaded tree, whose leaves are full: the
	// first put into each splits it.
	before := tr.NumPages()
	for i := 0; i < 1000; i++ {
		k := uint64(i)*2 + 1
		model[k] = val(k, 9)
		if err := tr.Put(k, model[k]); err != nil {
			t.Fatal(err)
		}
	}
	if tr.NumPages() == before {
		t.Fatal("a thousand puts into packed leaves split none")
	}
	checkModel(t, pool, tr.Meta(), model)
}

// TestBulkLoadEqualsIncremental: the same entries through BulkLoad and
// through Put in random order read back the same, though the pages differ.
func TestBulkLoadEqualsIncremental(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	model := map[uint64][]byte{}
	var entries []Entry
	for k := uint64(0); len(entries) < 3000; k += 1 + uint64(rng.Intn(5)) {
		n := rng.Intn(40)
		if rng.Intn(50) == 0 {
			n = rng.Intn(MaxValueSize + 1)
		}
		entries = append(entries, Entry{k, val(k, n)})
		model[k] = entries[len(entries)-1].Value
	}
	bulkPool, incPool := newPool(64), newPool(64)
	bulk, err := BulkLoad(bulkPool, entries)
	if err != nil {
		t.Fatal(err)
	}
	inc, err := New(incPool)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range rng.Perm(len(entries)) {
		if err := inc.Put(entries[i].Key, entries[i].Value); err != nil {
			t.Fatal(err)
		}
	}
	checkModel(t, bulkPool, bulk.Meta(), model)
	checkModel(t, incPool, inc.Meta(), model)
	if bulk.NumPages() >= inc.NumPages() {
		t.Errorf("bulk load took %d pages, the incremental build %d: packing should win", bulk.NumPages(), inc.NumPages())
	}
}

// TestLeafFilledToTheByte: four values of MaxValueSize with their slots
// are exactly a leaf. They fit one page by either path, a replacement of
// the same size keeps it one page, and ten more bytes (an empty value's
// slot) split it.
func TestLeafFilledToTheByte(t *testing.T) {
	if 4*(slotSize+MaxValueSize) != leafSpace {
		t.Fatalf("4 × (%d + %d) != %d: pick sizes that fill the leaf", slotSize, MaxValueSize, leafSpace)
	}
	entries := make([]Entry, 4)
	model := map[uint64][]byte{}
	for i := range entries {
		k := uint64(i+1) * 10
		entries[i] = Entry{k, val(k, MaxValueSize)}
		model[k] = entries[i].Value
	}
	pool := newPool(8)
	bulk, err := BulkLoad(pool, entries)
	if err != nil {
		t.Fatal(err)
	}
	if bulk.NumPages() != 1 {
		t.Fatalf("bulk load of a leaf's worth: %d pages", bulk.NumPages())
	}
	checkModel(t, pool, bulk.Meta(), model)

	pool = newPool(8)
	tr, err := New(pool)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{2, 0, 3, 1} {
		if err := tr.Put(entries[i].Key, entries[i].Value); err != nil {
			t.Fatal(err)
		}
	}
	model[20] = val(21, MaxValueSize)
	if err := tr.Put(20, model[20]); err != nil {
		t.Fatal(err)
	}
	if tr.NumPages() != 1 {
		t.Fatalf("a leaf's worth of puts took %d pages", tr.NumPages())
	}
	checkModel(t, pool, tr.Meta(), model)

	// Shrink one value by a slot's size and the empty value of a new key
	// takes the room: full to the byte again.
	model[30] = val(30, MaxValueSize-slotSize)
	model[35] = []byte{}
	if err := tr.Put(30, model[30]); err != nil {
		t.Fatal(err)
	}
	if err := tr.Put(35, nil); err != nil {
		t.Fatal(err)
	}
	if tr.NumPages() != 1 {
		t.Fatalf("refilling to the byte took %d pages", tr.NumPages())
	}
	checkModel(t, pool, tr.Meta(), model)

	// One more byte anywhere does not fit.
	model[35] = []byte{7}
	if err := tr.Put(35, model[35]); err != nil {
		t.Fatal(err)
	}
	if tr.NumPages() != 2 {
		t.Fatalf("one byte over: %d pages; want a split into 2 leaves", tr.NumPages())
	}
	checkModel(t, pool, tr.Meta(), model)
}

// TestValueGrowsAcrossSplit grows values in place, with no new key, until
// leaves split under them; then shrinks them back.
func TestValueGrowsAcrossSplit(t *testing.T) {
	entries := make([]Entry, 3*fixedPerLeaf)
	model := map[uint64][]byte{}
	for i := range entries {
		entries[i] = Entry{uint64(i), fixed(uint64(i))}
		model[uint64(i)] = entries[i].Value
	}
	pool := newPool(32)
	tr, err := BulkLoad(pool, entries)
	if err != nil {
		t.Fatal(err)
	}
	pages, count := tr.NumPages(), tr.Len()
	// The first, a middle and the last key of the middle leaf.
	for _, k := range []uint64{fixedPerLeaf, fixedPerLeaf + 100, 2*fixedPerLeaf - 1} {
		for _, n := range []int{7, 500, MaxValueSize, 3, 0, 900} {
			model[k] = val(k, n)
			if err := tr.Put(k, model[k]); err != nil {
				t.Fatalf("growing key %d to %d bytes: %v", k, n, err)
			}
		}
	}
	if tr.NumPages() <= pages {
		t.Fatalf("values grew by kilobytes inside packed leaves and no leaf split (%d pages)", tr.NumPages())
	}
	if tr.Len() != count {
		t.Fatalf("replacing values moved Len %d -> %d", count, tr.Len())
	}
	checkModel(t, pool, tr.Meta(), model)
}

// TestFirstLastKeyOfLeaf reads, replaces and grows the first and last key
// of every leaf, and probes the gaps across each leaf border, in a tree of
// thousands of leaves.
func TestFirstLastKeyOfLeaf(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	model := map[uint64][]byte{}
	var entries []Entry
	for k := uint64(5); len(entries) < 40_000; k += 2 + uint64(rng.Intn(4)) {
		entries = append(entries, Entry{k, val(k, 300+rng.Intn(300))})
		model[k] = entries[len(entries)-1].Value
	}
	pool := newPool(512)
	tr, err := BulkLoad(pool, entries)
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumPages() < 4000 {
		t.Fatalf("%d leaves, want thousands", tr.NumPages())
	}
	for _, l := range leaves(t, pool, tr.Meta()) {
		for _, e := range []Entry{l[0], l[len(l)-1]} {
			mustGet(t, tr, e.Key, e.Value)
			if _, err := tr.Get(e.Key - 1); !errors.Is(err, ErrNotFound) {
				t.Fatalf("Get(%d) below a leaf border key = %v", e.Key-1, err)
			}
			if _, err := tr.Get(e.Key + 1); !errors.Is(err, ErrNotFound) {
				t.Fatalf("Get(%d) above a leaf border key = %v", e.Key+1, err)
			}
		}
	}
	for i, l := range leaves(t, pool, tr.Meta()) {
		if i%7 != 0 {
			continue
		}
		first, last := l[0].Key, l[len(l)-1].Key
		model[first] = val(first, MaxValueSize)
		model[last] = val(last, 1)
		model[last+1] = val(last+1, 600) // a new key on the border
		for _, k := range []uint64{first, last, last + 1} {
			if err := tr.Put(k, model[k]); err != nil {
				t.Fatal(err)
			}
		}
	}
	checkModel(t, pool, tr.Meta(), model)
}

func TestTinyBufferPoolStillCorrect(t *testing.T) {
	// With only 3 frames every access thrashes; correctness must hold,
	// through splits whose pages are evicted between their two writes.
	pool := newPool(3)
	tr, err := New(pool)
	if err != nil {
		t.Fatal(err)
	}
	model := map[uint64][]byte{}
	for i := 0; i < 2000; i++ {
		k := uint64(i*7919) % 2003
		model[k] = val(k, i%200)
		if err := tr.Put(k, model[k]); err != nil {
			t.Fatal(err)
		}
	}
	checkModel(t, pool, tr.Meta(), model)
}

func TestQuickInsertedAlwaysFound(t *testing.T) {
	f := func(keys []uint64) bool {
		tr, err := New(newPool(32))
		if err != nil {
			return false
		}
		seen := map[uint64]bool{}
		for _, k := range keys {
			seen[k] = true
			if err := tr.Put(k, val(k, int(k%300))); err != nil {
				return false
			}
		}
		for k := range seen {
			v, err := tr.Get(k)
			if err != nil || !bytes.Equal(v, val(k, int(k%300))) {
				return false
			}
		}
		return tr.Len() == len(seen)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestFaultPropagation(t *testing.T) {
	file := storage.NewPageFile()
	pool := storage.NewBufferPool(file, 4, nil)
	tr, err := New(pool)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		if err := tr.Put(uint64(i), fixed(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := pool.DropAll(); err != nil {
		t.Fatal(err)
	}
	in, err := fault.New(fault.Config{Op: fault.OpRead, EveryN: 1})
	if err != nil {
		t.Fatal(err)
	}
	file.SetInjector(in)
	if _, err := tr.Get(42); !errors.Is(err, fault.ErrInjected) {
		t.Errorf("Get under fault = %v", err)
	}
	if err := tr.Scan(0, 100, func(k, size uint64) bool { return true }); !errors.Is(err, fault.ErrInjected) {
		t.Errorf("Scan under fault = %v", err)
	}
	if err := tr.Put(42, nil); !errors.Is(err, fault.ErrInjected) {
		t.Errorf("Put under fault = %v", err)
	}
	file.SetInjector(nil)
	mustGet(t, tr, 42, fixed(42))
}

// TestLeafRejectsDamagedSlot: cell bounds that run backwards or past the
// page are reported as a corrupt page, not sliced.
func TestLeafRejectsDamagedSlot(t *testing.T) {
	for name, end := range map[string]uint16{"past the page": storage.PageSize, "before its start": 2} {
		pool := newPool(8)
		tr, err := New(pool)
		if err != nil {
			t.Fatal(err)
		}
		for k := uint64(1); k <= 3; k++ {
			if err := tr.Put(k, val(k, 20)); err != nil {
				t.Fatal(err)
			}
		}
		pg, err := pool.Get(tr.Meta().Leaves[0])
		if err != nil {
			t.Fatal(err)
		}
		pg.PutUint16(leafMeta+1*slotSize+8, end) // slot of key 2
		if _, err := tr.Get(2); !errors.Is(err, storage.ErrCorruptPage) {
			t.Errorf("%s: Get = %v, want ErrCorruptPage", name, err)
		}
		if err := tr.Scan(0, 9, func(_, _ uint64) bool { return true }); !errors.Is(err, storage.ErrCorruptPage) {
			t.Errorf("%s: Scan = %v, want ErrCorruptPage", name, err)
		}
		if err := tr.Put(9, nil); !errors.Is(err, storage.ErrCorruptPage) {
			t.Errorf("%s: Put = %v, want ErrCorruptPage", name, err)
		}
	}
}

// modelOps drives the tree and a map through the same operations, decoded
// from ops four bytes at a time (opcode, key, two bytes of size), and
// compares them at the end. Keys fall in a small space so they repeat:
// a put of a held key is a replacement that grows or shrinks it.
func modelOps(t testing.TB, pool *storage.BufferPool, tr *Tree, model map[uint64][]byte, ops []byte) {
	t.Helper()
	for ; len(ops) >= 4; ops = ops[4:] {
		k := uint64(ops[1]) * 3
		size := int(binary.LittleEndian.Uint16(ops[2:]))
		switch op := ops[0] % 8; op {
		case 0, 1, 2, 3: // put: small, small, up to the bound, empty
			n := size % 48
			if op == 2 {
				n = size % (MaxValueSize + 1)
			} else if op == 3 {
				n = 0
			}
			model[k] = val(k+uint64(size), n)
			if err := tr.Put(k, model[k]); err != nil {
				t.Fatalf("Put(%d, %d bytes): %v", k, n, err)
			}
		case 4: // one byte over the bound is refused and changes nothing
			if err := tr.Put(k, make([]byte, MaxValueSize+1)); !errors.Is(err, ErrValueTooLarge) {
				t.Fatalf("oversized Put(%d) = %v", k, err)
			}
		case 5, 6: // get, of a held key or a gap
			k += uint64(op - 5)
			got, err := tr.Get(k)
			want, in := model[k]
			if in && (err != nil || !bytes.Equal(got, want)) {
				t.Fatalf("Get(%d) = %d bytes, %v; want %d bytes", k, len(got), err, len(want))
			}
			if !in && !errors.Is(err, ErrNotFound) {
				t.Fatalf("Get(%d) of an absent key = %v", k, err)
			}
		default: // bounded scan
			hi := k + uint64(size%64)
			want := 0
			for mk := range model {
				if mk >= k && mk <= hi {
					want++
				}
			}
			got := 0
			if err := ScanAt(pool, tr.Meta(), k, hi, func(sk uint64, v []byte) bool {
				if sk < k || sk > hi || !bytes.Equal(v, model[sk]) {
					t.Fatalf("Scan[%d, %d] produced (%d, %d bytes)", k, hi, sk, len(v))
				}
				got++
				return true
			}); err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("Scan[%d, %d] saw %d keys, model holds %d", k, hi, got, want)
			}
		}
	}
	checkModel(t, pool, tr.Meta(), model)
}

// startTree is the tree the model tests begin from: empty, or bulk-loaded
// with every other key of the op key space.
func startTree(t testing.TB, pool *storage.BufferPool, bulk bool) (*Tree, map[uint64][]byte) {
	t.Helper()
	model := map[uint64][]byte{}
	if !bulk {
		tr, err := New(pool)
		if err != nil {
			t.Fatal(err)
		}
		return tr, model
	}
	var entries []Entry
	for k := uint64(0); k < 256*3; k += 6 {
		entries = append(entries, Entry{k, val(k, int(k%97))})
		model[k] = entries[len(entries)-1].Value
	}
	tr, err := BulkLoad(pool, entries)
	if err != nil {
		t.Fatal(err)
	}
	return tr, model
}

// TestModelBasedOps drives seeded random put/replace/grow/shrink/get/scan
// sequences against a sorted-map model, from an empty and from a packed
// tree, through a roomy and a thrashing pool.
func TestModelBasedOps(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(99 + seed))
		ops := make([]byte, 4*6000)
		rng.Read(ops)
		pool := newPool([]int{3, 16, 256}[seed%3])
		tr, model := startTree(t, pool, seed%2 == 1)
		modelOps(t, pool, tr, model, ops)
		if tr.NumPages() < 2 {
			t.Fatalf("seed %d: 6000 ops left a tree of %d leaves", seed, tr.NumPages())
		}
	}
}

func FuzzBTreeOps(f *testing.F) {
	f.Add(false, []byte{0, 1, 5, 0, 5, 1, 0, 0})
	f.Add(true, bytes.Repeat([]byte{2, 9, 0xf3, 0x03, 2, 10, 0xf3, 0x03, 7, 8, 9, 0}, 8))
	grow := make([]byte, 0, 4*300)
	for i := 0; i < 300; i++ {
		grow = append(grow, 2, byte(i%5), byte(i*37), byte(i%4))
	}
	f.Add(true, grow)
	f.Fuzz(func(t *testing.T, bulk bool, ops []byte) {
		pool := newPool(4)
		tr, model := startTree(t, pool, bulk)
		modelOps(t, pool, tr, model, ops)
	})
}

// TestPinnedViewOutlivesSplit: readers pinned before puts that split
// leaves keep reading the trees they pinned, batch after batch, while each
// batch's writer reads its own writes and a view at the commit LSN sees
// the new tree. A split gives the writer's Meta a new directory; every
// directory published before it stays as it was, element for element.
func TestPinnedViewOutlivesSplit(t *testing.T) {
	entries := make([]Entry, 4*fixedPerLeaf)
	model := map[uint64][]byte{}
	for i := range entries {
		k := uint64(i) * 2 // odd keys are free for the batches
		entries[i] = Entry{k, fixed(k)}
		model[k] = entries[i].Value
	}
	pool := newPool(64)
	tr, err := BulkLoad(pool, entries)
	if err != nil {
		t.Fatal(err)
	}
	type version struct {
		m      Meta
		lows   []uint64
		leaves []storage.PageID
		model  map[uint64][]byte
		view   storage.PageReader
		lsn    uint64
	}
	pin := func(m Meta, model map[uint64][]byte, lsn uint64) version {
		return version{m, slices.Clone(m.Lows), slices.Clone(m.Leaves), maps.Clone(model), pool.ViewAt(lsn), lsn}
	}
	checkPinned := func(vs []version, when string) {
		t.Helper()
		for _, v := range vs {
			if !slices.Equal(v.m.Lows, v.lows) || !slices.Equal(v.m.Leaves, v.leaves) {
				t.Fatalf("%s: the directory published at LSN %d was written", when, v.lsn)
			}
			checkModel(t, v.view, v.m, v.model)
		}
	}
	versions := []version{pin(tr.Meta(), model, 0)}
	rng := rand.New(rand.NewSource(7))
	for lsn := uint64(1); lsn <= 5; lsn++ {
		batch := pool.NewBatch(lsn)
		next := versions[len(versions)-1].m
		// Values of MaxValueSize under new keys across the tree until
		// three of them have split a leaf.
		for splits, tries := 0, 0; splits < 3; tries++ {
			if tries == 200 {
				t.Fatalf("batch %d: 200 puts of %d bytes split %d leaves", lsn, MaxValueSize, splits)
			}
			k := uint64(rng.Intn(len(entries)))*2 + 1
			if _, held := model[k]; held {
				continue
			}
			leaves := len(next.Leaves)
			model[k] = val(k, MaxValueSize)
			if err := PutAt(batch, &next, k, model[k]); err != nil {
				t.Fatal(err)
			}
			if len(next.Leaves) > leaves {
				splits++
			}
		}
		checkModel(t, batch, next, model) // the writer reads its own writes
		checkPinned(versions, "unpublished")
		pool.Publish(batch, nil)
		checkPinned(versions, "published above the pins")
		versions = append(versions, pin(next, model, lsn))
		checkModel(t, versions[len(versions)-1].view, next, model) // a view at the commit LSN sees it
	}
	last := versions[len(versions)-1]
	if err := pool.FoldTo(last.lsn); err != nil {
		t.Fatal(err)
	}
	checkModel(t, pool, last.m, model)
}

// TestGetCostsOneRequestPerLevel: the directory is in memory and the value
// lives in the leaf it names, so a lookup, a put that splits nothing and a
// scan within one leaf each make exactly one page request, hit or miss,
// found or not, whatever the value's size and however many leaves the
// tree has.
func TestGetCostsOneRequestPerLevel(t *testing.T) {
	for _, n := range []int{1, 150, 5_000, 60_000} {
		entries := make([]Entry, n)
		for i := range entries {
			size := 6
			if i%500 == 0 {
				size = MaxValueSize
			}
			entries[i] = Entry{Key: uint64(i) * 3, Value: val(uint64(i), size)}
		}
		pool := newPool(4096)
		tr, err := BulkLoad(pool, entries)
		if err != nil {
			t.Fatal(err)
		}
		if n == 60_000 && tr.NumPages() < 200 {
			t.Fatalf("60k keys built %d leaves; the test wants hundreds", tr.NumPages())
		}
		io := pool.Stats()
		requests := func(op func()) int64 {
			before := io.LogicalRead.Load()
			op()
			return io.LogicalRead.Load() - before
		}
		for _, key := range []uint64{0, uint64(n/2) * 3, uint64((n-1)/500*500) * 3, uint64(n-1) * 3, uint64(n)*3 + 1, 1} {
			if got := requests(func() { _, _ = tr.Get(key) }); got != 1 {
				t.Errorf("n=%d: Get(%d) made %d page requests, want 1", n, key, got)
			}
		}
		if got := requests(func() {
			if err := tr.Put(0, val(0, 5)); err != nil {
				t.Error(err)
			}
		}); got != 1 {
			t.Errorf("n=%d: a Put that shrinks a value made %d page requests, want 1", n, got)
		}
		// The whole of the middle leaf: the scan stops at the next leaf's
		// low key without reading it.
		m := tr.Meta()
		mid := len(m.Lows) / 2
		lo, hi := m.Lows[mid], ^uint64(0)
		if mid+1 < len(m.Lows) {
			hi = m.Lows[mid+1] - 1
		}
		if got := requests(func() {
			_ = tr.Scan(lo, hi, func(_, _ uint64) bool { return true })
		}); got != 1 {
			t.Errorf("n=%d: a Scan of one whole leaf made %d page requests, want 1", n, got)
		}
	}
}

// TestDirectoryRejectsNonLeaf: a directory slot that names a page which is
// not a leaf is reported as a corrupt page, not read as one.
func TestDirectoryRejectsNonLeaf(t *testing.T) {
	pool := newPool(8)
	tr, err := New(pool)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Put(1, val(1, 20)); err != nil {
		t.Fatal(err)
	}
	pg, err := pool.Get(tr.Meta().Leaves[0])
	if err != nil {
		t.Fatal(err)
	}
	pg.PutUint16(0, kindLeaf+1)
	if _, err := tr.Get(1); !errors.Is(err, storage.ErrCorruptPage) {
		t.Errorf("Get = %v, want ErrCorruptPage", err)
	}
	if err := tr.Scan(0, 9, func(_, _ uint64) bool { return true }); !errors.Is(err, storage.ErrCorruptPage) {
		t.Errorf("Scan = %v, want ErrCorruptPage", err)
	}
	if err := tr.Put(2, nil); !errors.Is(err, storage.ErrCorruptPage) {
		t.Errorf("Put = %v, want ErrCorruptPage", err)
	}
}
