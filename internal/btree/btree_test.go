package btree

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math/rand"
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

// leaves walks the leaf chain from the leftmost leaf and checks what every
// leaf must satisfy: keys ascending within and across leaves, cells within
// the page.
func leaves(t testing.TB, r storage.PageReader, m Meta) [][]Entry {
	t.Helper()
	p, err := findLeafAt(context.Background(), r, m, 0)
	if err != nil {
		t.Fatal(err)
	}
	var out [][]Entry
	var last uint64
	seen := false
	for {
		es, err := leafEntries(p)
		if err != nil {
			t.Fatal(err)
		}
		used := 0
		for _, e := range es {
			if seen && e.Key <= last {
				t.Fatalf("leaf %d: key %d after %d", p.ID(), e.Key, last)
			}
			last, seen = e.Key, true
			used += entrySize(e)
		}
		if used > leafSpace {
			t.Fatalf("leaf %d holds %d bytes of %d", p.ID(), used, leafSpace)
		}
		cp := make([]Entry, len(es))
		for i, e := range es {
			cp[i] = Entry{e.Key, append([]byte(nil), e.Value...)}
		}
		out = append(out, cp)
		next := leafNext(p)
		if next == storage.InvalidPageID {
			return out
		}
		if p, err = r.Get(next); err != nil {
			t.Fatal(err)
		}
	}
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
		t.Fatalf("leaf chain holds %d keys, model %d", n, len(model))
	}
}

func TestEmptyTree(t *testing.T) {
	tr, err := New(newPool(8))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 0 || tr.Height() != 1 {
		t.Fatalf("empty tree: len=%d height=%d", tr.Len(), tr.Height())
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
	const n = 5000 // forces multiple leaf and internal splits
	perm := rand.New(rand.NewSource(1)).Perm(n)
	for _, i := range perm {
		if err := tr.Put(uint64(i)*3, val(uint64(i), i%90)); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Height() < 2 {
		t.Errorf("expected splits, height = %d", tr.Height())
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

// TestBulkLoadLinksEveryLeaf loads leaf counts around the internal fan-out
// and reads every key back through the root: when a level ends one node
// past a full group, the group before it gives up its last child so the
// trailing parent gets two, and that child must still hang under a parent.
func TestBulkLoadLinksEveryLeaf(t *testing.T) {
	fanout := MaxInternalKeys*3/4 + 1
	for _, nLeaves := range []int{fanout, fanout + 1, fanout + 2, 2*fanout + 1} {
		entries := make([]Entry, nLeaves*fixedPerLeaf)
		for i := range entries {
			entries[i] = Entry{Key: uint64(i) * 3, Value: fixed(uint64(i))}
		}
		pool := newPool(256)
		tr, err := BulkLoad(pool, entries)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(leaves(t, pool, tr.Meta())); got != nLeaves {
			t.Fatalf("%d entries of %d to a leaf built %d leaves, want %d", len(entries), fixedPerLeaf, got, nLeaves)
		}
		for _, e := range entries {
			mustGet(t, tr, e.Key, e.Value)
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
	if bulk.NumPages() != 1 || bulk.Height() != 1 {
		t.Fatalf("bulk load of a leaf's worth: %d pages, height %d", bulk.NumPages(), bulk.Height())
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
	if tr.NumPages() != 3 || tr.Height() != 2 {
		t.Fatalf("one byte over: %d pages, height %d; want a split into 2 leaves under a root", tr.NumPages(), tr.Height())
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
// height 3.
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
	if tr.Height() != 3 {
		t.Fatalf("height %d, want 3", tr.Height())
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
		pg, err := pool.Get(tr.Meta().Root)
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
		if tr.Height() < 2 {
			t.Fatalf("seed %d: 6000 ops left a tree of height %d", seed, tr.Height())
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

// TestPinnedViewOutlivesSplit: a reader pinned before a put that grows a
// value and splits its leaf keeps reading the tree it pinned, while the
// batch's reader and a later view see the new one.
func TestPinnedViewOutlivesSplit(t *testing.T) {
	entries := make([]Entry, 2*fixedPerLeaf)
	old := map[uint64][]byte{}
	for i := range entries {
		entries[i] = Entry{uint64(i), fixed(uint64(i))}
		old[uint64(i)] = entries[i].Value
	}
	pool := newPool(64)
	tr, err := BulkLoad(pool, entries)
	if err != nil {
		t.Fatal(err)
	}
	published := tr.Meta()
	pinned := pool.ViewAt(0)

	batch := pool.NewBatch(1)
	next := published
	grown := val(77, MaxValueSize)
	if err := PutAt(batch, &next, 77, grown); err != nil {
		t.Fatal(err)
	}
	if next.Pages == published.Pages {
		t.Fatal("the put split no leaf")
	}
	now := map[uint64][]byte{}
	for k, v := range old {
		now[k] = v
	}
	now[77] = grown

	checkModel(t, batch, next, now)       // the writer reads its own write
	checkModel(t, pinned, published, old) // unpublished: invisible
	pool.Publish(batch, nil)
	checkModel(t, pinned, published, old)    // published above the pin: still invisible
	checkModel(t, pool.ViewAt(1), next, now) // a view at the commit LSN sees it
	if err := pool.FoldTo(1); err != nil {
		t.Fatal(err)
	}
	checkModel(t, pool, next, now)
}

// TestGetCostsOneRequestPerLevel: the descent hands its leaf to the
// caller and the value lives in that leaf, so a lookup, a put that splits
// nothing and the first leaf of a scan each make exactly Meta.Height page
// requests, hit or miss, found or not, whatever the value's size.
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
		height := int64(tr.Height())
		if n == 60_000 && height != 3 {
			t.Fatalf("60k keys built a tree of height %d; the test wants the served index's 3", height)
		}
		io := pool.Stats()
		requests := func(op func()) int64 {
			before := io.LogicalRead.Load()
			op()
			return io.LogicalRead.Load() - before
		}
		for _, key := range []uint64{0, uint64(n/2) * 3, uint64((n-1)/500*500) * 3, uint64(n-1) * 3, uint64(n)*3 + 1, 1} {
			if got := requests(func() { _, _ = tr.Get(key) }); got != height {
				t.Errorf("n=%d: Get(%d) made %d page requests, want the height %d", n, key, got, height)
			}
		}
		if got := requests(func() {
			if err := tr.Put(0, val(0, 5)); err != nil {
				t.Error(err)
			}
		}); got != height {
			t.Errorf("n=%d: a Put that shrinks a value made %d page requests, want %d", n, got, height)
		}
		if got := requests(func() {
			_ = tr.Scan(0, 0, func(_, _ uint64) bool { return true })
		}); got != height {
			t.Errorf("n=%d: a one-leaf Scan made %d page requests, want %d", n, got, height)
		}
	}
}
