package btree

import (
	"errors"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"dsks/internal/storage"
)

func newPool(frames int) *storage.BufferPool {
	return storage.NewBufferPool(storage.NewPageFile(), frames, nil)
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
	if err := tr.Scan(0, ^uint64(0), func(k, v uint64) bool { called = true; return true }); err != nil {
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
		if err := tr.Insert(k, k*10); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range keys {
		v, err := tr.Get(k)
		if err != nil || v != k*10 {
			t.Errorf("Get(%d) = %d, %v", k, v, err)
		}
	}
	if _, err := tr.Get(2); !errors.Is(err, ErrNotFound) {
		t.Error("missing key found")
	}
	if err := tr.Insert(5, 0); !errors.Is(err, ErrDuplicate) {
		t.Errorf("duplicate insert = %v", err)
	}
	if tr.Len() != 5 {
		t.Errorf("Len = %d", tr.Len())
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
		if err := tr.Insert(uint64(i)*3, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Height() < 2 {
		t.Errorf("expected splits, height = %d", tr.Height())
	}
	for i := 0; i < n; i++ {
		v, err := tr.Get(uint64(i) * 3)
		if err != nil || v != uint64(i) {
			t.Fatalf("Get(%d) = %d, %v", i*3, v, err)
		}
	}
	// Keys in between must be absent.
	for i := 0; i < 100; i++ {
		if _, err := tr.Get(uint64(i)*3 + 1); !errors.Is(err, ErrNotFound) {
			t.Fatalf("phantom key %d", i*3+1)
		}
	}
}

func TestScanOrderAndRange(t *testing.T) {
	tr, err := New(newPool(64))
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
		if err := tr.Insert(k, k^0xFF); err != nil {
			t.Fatal(err)
		}
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })

	// Full scan yields all keys in order.
	var got []uint64
	if err := tr.Scan(0, ^uint64(0), func(k, v uint64) bool {
		if v != k^0xFF {
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

	// Bounded range scan.
	lo, hi := sorted[500], sorted[700]
	count := 0
	if err := tr.Scan(lo, hi, func(k, v uint64) bool { count++; return true }); err != nil {
		t.Fatal(err)
	}
	if count != 201 {
		t.Errorf("range scan found %d keys, want 201", count)
	}

	// Early termination.
	count = 0
	if err := tr.Scan(0, ^uint64(0), func(k, v uint64) bool { count++; return count < 10 }); err != nil {
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
		entries[i] = Entry{Key: uint64(i) * 7, Value: uint64(i)}
	}
	tr, err := BulkLoad(newPool(128), entries)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != n {
		t.Fatalf("Len = %d", tr.Len())
	}
	for i := 0; i < n; i += 97 {
		v, err := tr.Get(uint64(i) * 7)
		if err != nil || v != uint64(i) {
			t.Fatalf("Get(%d) = %d, %v", i*7, v, err)
		}
	}
	if _, err := tr.Get(3); !errors.Is(err, ErrNotFound) {
		t.Error("phantom key in bulk-loaded tree")
	}
	// Scan must return exactly the loaded keys in order.
	i := 0
	if err := tr.Scan(0, ^uint64(0), func(k, v uint64) bool {
		if k != uint64(i)*7 || v != uint64(i) {
			t.Fatalf("scan entry %d = (%d,%d)", i, k, v)
		}
		i++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if i != n {
		t.Fatalf("scan visited %d entries", i)
	}
}

// TestBulkLoadLinksEveryLeaf loads leaf counts around the internal fan-out
// and reads every key back through the root: when a level ends one node
// past a full group, the group before it gives up its last child so the
// trailing parent gets two, and that child must still hang under a parent.
func TestBulkLoadLinksEveryLeaf(t *testing.T) {
	perLeaf := MaxLeafEntries * 3 / 4
	fanout := MaxInternalKeys*3/4 + 1
	for _, leaves := range []int{fanout, fanout + 1, fanout + 2, 2*fanout + 1} {
		entries := make([]Entry, leaves*perLeaf)
		for i := range entries {
			entries[i] = Entry{Key: uint64(i) * 3, Value: uint64(i)}
		}
		tr, err := BulkLoad(newPool(256), entries)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if v, err := tr.Get(e.Key); err != nil || v != e.Value {
				t.Fatalf("%d leaves: Get(%d) = %d, %v; want %d", leaves, e.Key, v, err, e.Value)
			}
		}
	}
}

func TestBulkLoadRejectsUnsorted(t *testing.T) {
	if _, err := BulkLoad(newPool(8), []Entry{{2, 0}, {1, 0}}); err == nil {
		t.Error("unsorted input accepted")
	}
	if _, err := BulkLoad(newPool(8), []Entry{{2, 0}, {2, 1}}); err == nil {
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
	for i := range entries {
		entries[i] = Entry{Key: uint64(i) * 2, Value: uint64(i)}
	}
	tr, err := BulkLoad(newPool(64), entries)
	if err != nil {
		t.Fatal(err)
	}
	// Insert odd keys into the bulk-loaded tree.
	for i := 0; i < 1000; i++ {
		if err := tr.Insert(uint64(i)*2+1, 9999); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2000; i++ {
		if _, err := tr.Get(uint64(i)); err != nil {
			t.Fatalf("Get(%d): %v", i, err)
		}
	}
}

func TestTinyBufferPoolStillCorrect(t *testing.T) {
	// With only 3 frames every access thrashes; correctness must hold.
	tr, err := New(newPool(3))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		if err := tr.Insert(uint64(i), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2000; i++ {
		v, err := tr.Get(uint64(i))
		if err != nil || v != uint64(i) {
			t.Fatalf("Get(%d) = %d, %v", i, v, err)
		}
	}
}

func TestQuickInsertedAlwaysFound(t *testing.T) {
	f := func(keys []uint64) bool {
		tr, err := New(newPool(32))
		if err != nil {
			return false
		}
		seen := map[uint64]bool{}
		for _, k := range keys {
			if seen[k] {
				continue
			}
			seen[k] = true
			if err := tr.Insert(k, k+1); err != nil {
				return false
			}
		}
		for k := range seen {
			v, err := tr.Get(k)
			if err != nil || v != k+1 {
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
		if err := tr.Insert(uint64(i), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := pool.DropAll(); err != nil {
		t.Fatal(err)
	}
	wantErr := errors.New("injected")
	file.SetFault(func(op string, _ storage.PageID) error {
		if op == "read" {
			return wantErr
		}
		return nil
	})
	if _, err := tr.Get(42); !errors.Is(err, wantErr) {
		t.Errorf("Get under fault = %v", err)
	}
	if err := tr.Scan(0, 100, func(k, v uint64) bool { return true }); !errors.Is(err, wantErr) {
		t.Errorf("Scan under fault = %v", err)
	}
	file.SetFault(nil)
	if _, err := tr.Get(42); err != nil {
		t.Errorf("Get after fault cleared = %v", err)
	}
}

// TestModelBasedOps drives random insert/update/get sequences against a
// map model.
func TestModelBasedOps(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	tr, err := New(newPool(16))
	if err != nil {
		t.Fatal(err)
	}
	model := map[uint64]uint64{}
	for op := 0; op < 8000; op++ {
		k := uint64(rng.Intn(2000))
		switch rng.Intn(3) {
		case 0: // insert
			v := rng.Uint64()
			_, exists := model[k]
			err := tr.Insert(k, v)
			if exists && !errors.Is(err, ErrDuplicate) {
				t.Fatalf("op %d: duplicate insert of %d gave %v", op, k, err)
			}
			if !exists {
				if err != nil {
					t.Fatalf("op %d: insert %d failed: %v", op, k, err)
				}
				model[k] = v
			}
		case 1: // update
			v := rng.Uint64()
			_, exists := model[k]
			err := tr.Update(k, v)
			if !exists && !errors.Is(err, ErrNotFound) {
				t.Fatalf("op %d: update of missing %d gave %v", op, k, err)
			}
			if exists {
				if err != nil {
					t.Fatalf("op %d: update %d failed: %v", op, k, err)
				}
				model[k] = v
			}
		default: // get
			want, exists := model[k]
			got, err := tr.Get(k)
			if exists && (err != nil || got != want) {
				t.Fatalf("op %d: get %d = (%d, %v), want %d", op, k, got, err, want)
			}
			if !exists && !errors.Is(err, ErrNotFound) {
				t.Fatalf("op %d: get of missing %d gave %v", op, k, err)
			}
		}
	}
	if tr.Len() != len(model) {
		t.Fatalf("Len %d, model %d", tr.Len(), len(model))
	}
	// Final full verification via scan.
	count := 0
	if err := tr.Scan(0, ^uint64(0), func(k, v uint64) bool {
		if model[k] != v {
			t.Fatalf("scan %d = %d, want %d", k, v, model[k])
		}
		count++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if count != len(model) {
		t.Fatalf("scan saw %d keys, model has %d", count, len(model))
	}
}

// TestGetCostsOneRequestPerLevel: the descent hands its leaf to the
// caller, so a lookup, an update and the first leaf of a scan each make
// exactly Meta.Height page requests, hit or miss, found or not.
func TestGetCostsOneRequestPerLevel(t *testing.T) {
	for _, n := range []int{1, 150, 5_000, 60_000} {
		entries := make([]Entry, n)
		for i := range entries {
			entries[i] = Entry{Key: uint64(i) * 3, Value: uint64(i)}
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
		for _, key := range []uint64{0, uint64(n/2) * 3, uint64(n-1) * 3, uint64(n)*3 + 1, 1} {
			if got := requests(func() { _, _ = tr.Get(key) }); got != height {
				t.Errorf("n=%d: Get(%d) made %d page requests, want the height %d", n, key, got, height)
			}
		}
		if got := requests(func() {
			if err := tr.Update(0, 9); err != nil {
				t.Error(err)
			}
		}); got != height {
			t.Errorf("n=%d: Update made %d page requests, want %d", n, got, height)
		}
		if got := requests(func() {
			_ = tr.Scan(0, 0, func(_, _ uint64) bool { return true })
		}); got != height {
			t.Errorf("n=%d: a one-leaf Scan made %d page requests, want %d", n, got, height)
		}
	}
}
