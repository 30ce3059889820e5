package ccam

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"dsks/internal/dataset"
	"dsks/internal/geo"
	"dsks/internal/graph"
	"dsks/internal/minheap"
	"dsks/internal/storage"
)

// zHalvingPages is the placement Build used before pages were grown by
// connectivity, kept as the reference the grown layout must beat: the
// Z-ordered node sequence is halved until each half fits one page.
func zHalvingPages(g *graph.Graph) [][]graph.NodeID {
	var groups [][]graph.NodeID
	var halve func(group []graph.NodeID)
	halve = func(group []graph.NodeID) {
		size := pageHeaderSize
		for _, nd := range group {
			size += nodeEntrySize(g.Degree(nd))
		}
		if size <= storage.PageSize || len(group) == 1 {
			groups = append(groups, group)
			return
		}
		halve(group[:len(group)/2])
		halve(group[len(group)/2:])
	}
	if order := zOrder(g); len(order) > 0 {
		halve(order)
	}
	return groups
}

// zFillPages fills each page from the Z-ordered run to the last entry
// that fits: the grown layout's page density without its growth over
// neighbours, so a test can tell the two gains apart.
func zFillPages(g *graph.Graph) [][]graph.NodeID {
	var groups [][]graph.NodeID
	size := storage.PageSize
	for _, nd := range zOrder(g) {
		sz := nodeEntrySize(g.Degree(nd))
		if size+sz > storage.PageSize {
			groups, size = append(groups, nil), pageHeaderSize
		}
		groups[len(groups)-1], size = append(groups[len(groups)-1], nd), size+sz
	}
	return groups
}

// checkLayout walks every page f wrote: each node of g lies on exactly
// one page, at the page and offset its directory names, every page's
// entries fit the page, and every entry decodes to g.Adjacent.
func checkLayout(t testing.TB, g *graph.Graph, f *File) {
	t.Helper()
	seen := make([]bool, g.NumNodes())
	pages := map[storage.PageID]bool{}
	for n := range g.NumNodes() {
		pages[f.dir[n]] = true
	}
	if len(pages) != f.NumPages() {
		t.Fatalf("directory names %d pages, the file wrote %d", len(pages), f.NumPages())
	}
	for id := range pages {
		page, err := f.pool.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		off, count := pageHeaderSize, int(page.Uint16(0))
		for range count {
			nd := graph.NodeID(page.Uint32(off))
			if nd < 0 || int(nd) >= g.NumNodes() || seen[nd] {
				t.Fatalf("page %d offset %d: node %d is unknown or placed twice", id, off, nd)
			}
			seen[nd] = true
			if f.dir[nd] != id || int(f.slot[nd]) != off {
				t.Fatalf("node %d lies at page %d offset %d, its directory says %d/%d", nd, id, off, f.dir[nd], f.slot[nd])
			}
			if off += nodeEntrySize(int(page.Uint16(off + 4))); off > storage.PageSize {
				t.Fatalf("page %d: entries run past the page", id)
			}
		}
	}
	for n := range g.NumNodes() {
		nd := graph.NodeID(n)
		if !seen[nd] {
			t.Fatalf("node %d lies on no page", nd)
		}
		got, err := f.Adjacency(context.Background(), nd)
		if err != nil {
			t.Fatal(err)
		}
		want := g.Adjacent(nd)
		if len(got) != len(want) {
			t.Fatalf("node %d: %d entries, want %d", nd, len(got), len(want))
		}
		for i, eid := range want {
			e := g.Edge(eid)
			if (got[i] != AdjEntry{Edge: eid, Other: e.OtherEnd(nd), Length: e.Length, Weight: e.Weight}) {
				t.Fatalf("node %d entry %d = %+v, edge %+v", nd, i, got[i], e)
			}
		}
	}
}

// TestLayoutInvariants checks Build and the two reference layouts on
// graphs from a bare path to three chords a node.
func TestLayoutInvariants(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		g := randomGraph(t, 700, int(seed-1)*700, seed)
		f, err := Build(g, newPool(16))
		if err != nil {
			t.Fatal(err)
		}
		checkLayout(t, g, f)
		for _, groups := range [][][]graph.NodeID{zHalvingPages(g), zFillPages(g)} {
			ref, err := writePages(g, newPool(16), groups)
			if err != nil {
				t.Fatal(err)
			}
			checkLayout(t, g, ref)
		}
	}
}

// expansionMisses replays 200 seeded Dijkstra expansions of the given
// radius (network distance by edge weight) from random nodes over f, each
// from an empty pool as a cold query's would be, and returns the pool's
// misses.
func expansionMisses(t *testing.T, f *File, radius float64) int64 {
	t.Helper()
	stats := f.pool.Stats()
	stats.Reset()
	rng := rand.New(rand.NewSource(11))
	var h minheap.Heap[struct{}]
	dist := make([]float64, f.NumNodes())
	for range 200 {
		if err := f.pool.DropAll(); err != nil {
			t.Fatal(err)
		}
		for i := range dist {
			dist[i] = -1
		}
		src := rng.Intn(f.NumNodes())
		h.Reset()
		h.Push(0, int32(src), struct{}{})
		for h.Len() > 0 {
			top := h.Pop()
			if dist[top.ID] >= 0 {
				continue
			}
			dist[top.ID] = top.Key
			adj, err := f.Adjacency(context.Background(), graph.NodeID(top.ID))
			if err != nil {
				t.Fatal(err)
			}
			for _, a := range adj {
				if d := top.Key + a.Weight; d <= radius && dist[a.Other] < 0 {
					h.Push(d, int32(a.Other), struct{}{})
				}
			}
		}
	}
	return stats.Snapshot().DiskRead
}

// TestGrownPagesCutExpansionMisses is the count verdict for the layout:
// bounded expansions over the grown pages miss a 16-frame pool strictly
// less often than over the Z-halving reference, and than over pages
// filled as densely from the Z-ordered run, on the sparse NA network and
// on the denser SF mesh.
func TestGrownPagesCutExpansionMisses(t *testing.T) {
	for _, p := range []dataset.Preset{dataset.PresetNA, dataset.PresetSF} {
		ds, err := dataset.GeneratePreset(p, 200, 7)
		if err != nil {
			t.Fatal(err)
		}
		g := ds.Graph
		mean := 0.0
		for e := range g.NumEdges() {
			mean += g.Edge(graph.EdgeID(e)).Weight / float64(g.NumEdges())
		}
		grown, err := GrowPages(g)
		if err != nil {
			t.Fatal(err)
		}
		names := []string{"Z-halving", "Z-fill", "grown"}
		var misses [3]int64
		for i, groups := range [][][]graph.NodeID{zHalvingPages(g), zFillPages(g), grown} {
			f, err := writePages(g, storage.NewBufferPool(storage.NewPageFile(), 16, &storage.IOStats{}), groups)
			if err != nil {
				t.Fatal(err)
			}
			misses[i] = expansionMisses(t, f, 8*mean)
			t.Logf("%s/200 %s: %d pages, %d misses over 200 expansions", p, names[i], f.NumPages(), misses[i])
		}
		for i := range 2 {
			if misses[2] >= misses[i] {
				t.Errorf("%s/200: grown pages missed %d times, %s %d; want strictly fewer", p, misses[2], names[i], misses[i])
			}
		}
	}
}

// FuzzCCAMBuild builds random small graphs — disconnected ones, coincident
// nodes (Z-code ties) and a hub whose degree runs up to and past the one
// page limit — and checks that Build either places every node exactly once
// with its adjacency intact, or fails with the one-page error because
// some node's entry cannot fit a page.
func FuzzCCAMBuild(f *testing.F) {
	maxDegree := (storage.PageSize - pageHeaderSize - nodeHeaderSize) / adjRecordSize
	f.Add(int64(1), uint8(40), uint16(60), uint8(0))
	f.Add(int64(2), uint8(30), uint16(3), uint8(0))
	f.Add(int64(3), uint8(8), uint16(10), uint8(maxDegree))
	f.Add(int64(4), uint8(8), uint16(10), uint8(maxDegree+1))
	f.Add(int64(5), uint8(1), uint16(0), uint8(0))
	f.Add(int64(6), uint8(47), uint16(300), uint8(maxDegree-3))
	f.Fuzz(func(t *testing.T, seed int64, nodes uint8, edges uint16, hub uint8) {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(nodes)%48
		g := graph.New()
		for range n {
			// A coarse grid makes coincident nodes and Z-code ties common.
			g.AddNode(geo.Point{X: float64(rng.Intn(8)) * geo.WorldMax / 8, Y: float64(rng.Intn(8)) * geo.WorldMax / 8})
		}
		link := func(a graph.NodeID) {
			if b := graph.NodeID(rng.Intn(n)); a != b {
				if _, err := g.AddEdge(a, b, 1+rng.Float64()); err != nil {
					t.Fatal(err)
				}
			}
		}
		for range int(edges) % 400 {
			link(graph.NodeID(rng.Intn(n)))
		}
		for range int(hub) {
			link(0)
		}
		g.Freeze()
		tooBig := false
		for nd := range n {
			tooBig = tooBig || g.Degree(graph.NodeID(nd)) > maxDegree
		}
		file, err := Build(g, newPool(8))
		if err != nil {
			if !tooBig || !strings.Contains(err.Error(), "exceeds one page") {
				t.Fatalf("Build: %v (a node too big for a page: %v)", err, tooBig)
			}
			return
		}
		if tooBig {
			t.Fatal("Build placed a node whose entry exceeds one page")
		}
		checkLayout(t, g, file)
	})
}
