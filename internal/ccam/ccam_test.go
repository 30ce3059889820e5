package ccam

import (
	"context"

	"errors"
	"math/rand"
	"testing"

	"dsks/internal/fault"
	"dsks/internal/geo"
	"dsks/internal/graph"
	"dsks/internal/storage"
)

func randomGraph(t testing.TB, n, extra int, seed int64) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := graph.New()
	for i := 0; i < n; i++ {
		g.AddNode(geo.Point{X: rng.Float64() * geo.WorldMax, Y: rng.Float64() * geo.WorldMax})
	}
	for i := 1; i < n; i++ {
		if _, err := g.AddEdge(graph.NodeID(i-1), graph.NodeID(i), 1+rng.Float64()*10); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < extra; i++ {
		a, b := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
		if a != b {
			_, _ = g.AddEdge(a, b, 1+rng.Float64()*10)
		}
	}
	g.Freeze()
	return g
}

func newPool(frames int) *storage.BufferPool {
	return storage.NewBufferPool(storage.NewPageFile(), frames, nil)
}

func TestBuildAndReadBack(t *testing.T) {
	g := randomGraph(t, 500, 700, 1)
	pool := newPool(64)
	f, err := Build(g, pool)
	if err != nil {
		t.Fatal(err)
	}
	if f.NumNodes() != g.NumNodes() {
		t.Fatalf("NumNodes = %d", f.NumNodes())
	}
	if f.NumPages() == 0 {
		t.Fatal("no pages written")
	}
	// Every node lies on one page and its adjacency round-trips exactly.
	checkLayout(t, g, f)
}

func TestAdjacencyCountsIO(t *testing.T) {
	g := randomGraph(t, 300, 300, 2)
	stats := &storage.IOStats{}
	pool := storage.NewBufferPool(storage.NewPageFile(), 4, stats)
	f, err := Build(g, pool)
	if err != nil {
		t.Fatal(err)
	}
	if err := pool.DropAll(); err != nil {
		t.Fatal(err)
	}
	stats.Reset()
	if _, err := f.Adjacency(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	if stats.Snapshot().DiskRead != 1 {
		t.Errorf("cold adjacency read cost %d disk I/Os", stats.Snapshot().DiskRead)
	}
	if _, err := f.Adjacency(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	if stats.Snapshot().DiskRead != 1 {
		t.Error("warm adjacency read should not hit disk")
	}
}

func TestZOrderClusteringLocality(t *testing.T) {
	// Pages grown by connectivity and topped up from the next Z seed are
	// filled densely: the page count stays within 10% of the packing
	// optimum (the zHalvingPages reference takes 1.2-1.7x of it on
	// random graphs).
	g := randomGraph(t, 2000, 2000, 3)
	pool := newPool(256)
	f, err := Build(g, pool)
	if err != nil {
		t.Fatal(err)
	}
	totalBytes := pageHeaderSize
	for n := 0; n < g.NumNodes(); n++ {
		totalBytes += nodeEntrySize(g.Degree(graph.NodeID(n)))
	}
	minPages := (totalBytes + storage.PageSize - 1) / storage.PageSize
	t.Logf("%d pages, packing optimum %d", f.NumPages(), minPages)
	if 10*f.NumPages() > 11*minPages {
		t.Errorf("poor packing: %d pages vs optimum %d", f.NumPages(), minPages)
	}
}

func TestAdjacencyUnknownNode(t *testing.T) {
	g := randomGraph(t, 10, 5, 4)
	f, err := Build(g, newPool(8))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Adjacency(context.Background(), graph.NodeID(-1)); err == nil {
		t.Error("negative node accepted")
	}
	if _, err := f.Adjacency(context.Background(), graph.NodeID(10)); err == nil {
		t.Error("out-of-range node accepted")
	}
}

func TestInMemoryMatchesFile(t *testing.T) {
	g := randomGraph(t, 100, 150, 5)
	f, err := Build(g, newPool(32))
	if err != nil {
		t.Fatal(err)
	}
	mem := InMemory{G: g}
	if mem.NumNodes() != f.NumNodes() {
		t.Fatal("node count mismatch")
	}
	for n := 0; n < g.NumNodes(); n++ {
		a, err := f.Adjacency(context.Background(), graph.NodeID(n))
		if err != nil {
			t.Fatal(err)
		}
		b, err := mem.Adjacency(context.Background(), graph.NodeID(n))
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("node %d: file %d vs mem %d entries", n, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("node %d entry %d: %+v vs %+v", n, i, a[i], b[i])
			}
		}
	}
	if _, err := mem.Adjacency(context.Background(), graph.NodeID(1000)); err == nil {
		t.Error("InMemory accepted unknown node")
	}
}

func TestAdjacencyFaultPropagation(t *testing.T) {
	g := randomGraph(t, 100, 100, 9)
	file := storage.NewPageFile()
	pool := storage.NewBufferPool(file, 16, nil)
	f, err := Build(g, pool)
	if err != nil {
		t.Fatal(err)
	}
	if err := pool.DropAll(); err != nil {
		t.Fatal(err)
	}
	in, err := fault.New(fault.Config{Op: fault.OpRead, EveryN: 1})
	if err != nil {
		t.Fatal(err)
	}
	file.SetInjector(in)
	if _, err := f.Adjacency(context.Background(), 0); !errors.Is(err, fault.ErrInjected) {
		t.Errorf("Adjacency under fault = %v", err)
	}
}

// TestAdjacencyRejectsDamagedEntry reads hand-laid entries through a File
// whose directory points at them: an entry that is not the node's, or whose
// degree runs past the page (a flipped byte no checksum was on to catch),
// is an error matching storage.ErrCorruptPage, never a panic or a list
// decoded from another node's bytes. Build cannot produce a page that is
// full to the last byte (no sum of entry sizes is 4094), so that boundary
// is laid by hand too.
func TestAdjacencyRejectsDamagedEntry(t *testing.T) {
	lastSlot := storage.PageSize - nodeEntrySize(2)
	for _, tc := range []struct {
		name             string
		slot             int
		storedID, degree int // the entry header on the page
		corrupt          bool
	}{
		{"intact", pageHeaderSize, 0, 2, false},
		{"degree 0", pageHeaderSize, 0, 0, false},
		{"last entry ends exactly at the page end", lastSlot, 0, 2, false},
		{"another node's ID at the slot", pageHeaderSize, 7, 2, true},
		{"degree one record past the page end", lastSlot, 0, 3, true},
		{"degree field overwritten with 60000", pageHeaderSize, 0, 60000, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pool := newPool(4)
			page, err := pool.Allocate()
			if err != nil {
				t.Fatal(err)
			}
			page.PutUint16(0, 1)
			page.PutUint32(tc.slot, uint32(tc.storedID))
			page.PutUint16(tc.slot+4, uint16(tc.degree))
			for j, off := 0, tc.slot+nodeHeaderSize; off+adjRecordSize <= storage.PageSize && j < tc.degree; j, off = j+1, off+adjRecordSize {
				page.PutUint32(off, uint32(j))
				page.PutUint32(off+4, uint32(j+1))
				page.PutFloat64(off+8, 1.5)
				page.PutFloat64(off+16, 2.5)
			}
			pool.MarkDirty(page.ID())
			f := &File{pool: pool, dir: []storage.PageID{page.ID()}, slot: []uint16{uint16(tc.slot)}, numNodes: 1, numPages: 1}
			adj, err := f.Adjacency(context.Background(), 0)
			if tc.corrupt {
				if !errors.Is(err, storage.ErrCorruptPage) {
					t.Fatalf("Adjacency = %v, %v; want an error matching storage.ErrCorruptPage", adj, err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(adj) != tc.degree {
				t.Fatalf("%d records, want %d", len(adj), tc.degree)
			}
			for j, a := range adj {
				if want := (AdjEntry{Edge: graph.EdgeID(j), Other: graph.NodeID(j + 1), Length: 1.5, Weight: 2.5}); a != want {
					t.Fatalf("record %d = %+v, want %+v", j, a, want)
				}
			}
		})
	}
}
