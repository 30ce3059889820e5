package invindex

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"dsks/internal/btree"
	"dsks/internal/dataset"
	"dsks/internal/geo"
	"dsks/internal/graph"
	"dsks/internal/index"
	"dsks/internal/obj"
	"dsks/internal/storage"
)

// recordsPerPage is the packing density of an overflow page.
const recordsPerPage = storage.PageSize / postingSize

// buildFixture creates a small graph with objects and the index over them.
func buildFixture(t testing.TB, nObjects int, seed int64) (*graph.Graph, *obj.Collection, *Index, *Loader, *storage.IOStats) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := graph.New()
	const n = 50
	for i := 0; i < n; i++ {
		g.AddNode(geo.Point{X: rng.Float64() * geo.WorldMax, Y: rng.Float64() * geo.WorldMax})
	}
	for i := 1; i < n; i++ {
		if _, err := g.AddEdge(graph.NodeID(i-1), graph.NodeID(i), 1+rng.Float64()*5); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 30; i++ {
		a, b := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
		if a != b {
			_, _ = g.AddEdge(a, b, 1+rng.Float64()*5)
		}
	}
	g.Freeze()

	const vocab = 20
	col := obj.NewCollection()
	for i := 0; i < nObjects; i++ {
		e := graph.EdgeID(rng.Intn(g.NumEdges()))
		nt := 1 + rng.Intn(4)
		terms := make([]obj.TermID, nt)
		for j := range terms {
			terms[j] = obj.TermID(rng.Intn(vocab))
		}
		col.Add(graph.Position{Edge: e, Offset: rng.Float64() * g.Edge(e).Length}, terms)
	}
	stats := &storage.IOStats{}
	pool := storage.NewBufferPool(storage.NewPageFile(), 256, stats)
	idx, err := Build(g, col, vocab, pool)
	if err != nil {
		t.Fatal(err)
	}
	return g, col, idx, &Loader{Idx: idx, Coder: GraphZCoder{G: g}}, stats
}

// termPostings reads term t's postings on edge e at idx's live roots.
func termPostings(idx *Index, t obj.TermID, e graph.EdgeID, key uint64) ([]Posting, error) {
	return Reader{Idx: idx, PR: idx.pool, Roots: &idx.roots}.TermPostingsCtx(context.Background(), t, e, key)
}

// bruteLoad is the reference implementation of Algorithm 2.
func bruteLoad(col *obj.Collection, e graph.EdgeID, terms []obj.TermID) map[obj.ID]bool {
	out := map[obj.ID]bool{}
	for _, id := range col.OnEdge(e) {
		if col.Get(id).HasAllTerms(terms) {
			out[id] = true
		}
	}
	return out
}

func TestLoadObjectsMatchesBruteForce(t *testing.T) {
	g, col, _, loader, _ := buildFixture(t, 400, 1)
	rng := rand.New(rand.NewSource(2))
	checked := 0
	for trial := 0; trial < 300; trial++ {
		e := graph.EdgeID(rng.Intn(g.NumEdges()))
		nt := 1 + rng.Intn(3)
		terms := make([]obj.TermID, nt)
		for j := range terms {
			terms[j] = obj.TermID(rng.Intn(20))
		}
		terms = obj.NormalizeTerms(terms)
		want := bruteLoad(col, e, terms)
		got, err := loader.LoadObjects(context.Background(), e, terms)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("edge %d terms %v: got %d, want %d", e, terms, len(got), len(want))
		}
		for i, r := range got {
			if !want[r.ID] {
				t.Fatalf("edge %d terms %v: spurious object %d", e, terms, r.ID)
			}
			if i > 0 && got[i-1].ID >= r.ID {
				t.Fatalf("edge %d terms %v: objects not in ascending ID order: %v", e, terms, got)
			}
			o := col.Get(r.ID)
			if r.Edge != e || o.Pos.Offset != r.Offset {
				t.Fatalf("posting mismatch for %d: %+v vs %+v", r.ID, r, o.Pos)
			}
		}
		if len(want) > 0 {
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("all probes empty; test is vacuous")
	}
}

func TestLoadObjectsEmptyTerm(t *testing.T) {
	_, _, _, loader, _ := buildFixture(t, 100, 3)
	got, err := loader.LoadObjects(context.Background(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got != nil {
		t.Errorf("empty terms returned %v", got)
	}
}

// TestLoadObjectsUnknownTerm probes term 19 on every edge: every object
// returned carries it, and an edge where no object carries it returns
// nothing. The fixture must have edges of both kinds.
func TestLoadObjectsUnknownTerm(t *testing.T) {
	g, col, _, loader, _ := buildFixture(t, 100, 4)
	absent, found := 0, 0
	for e := 0; e < g.NumEdges(); e++ {
		got, err := loader.LoadObjects(context.Background(), graph.EdgeID(e), []obj.TermID{19})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range got {
			if !col.Get(r.ID).HasTerm(19) || r.Edge != graph.EdgeID(e) {
				t.Fatalf("edge %d: object %d on edge %d lacks term 19", e, r.ID, r.Edge)
			}
		}
		found += len(got)
		if len(bruteLoad(col, graph.EdgeID(e), []obj.TermID{19})) == 0 {
			if len(got) != 0 {
				t.Fatalf("edge %d carries no term 19, the probe returned %v", e, got)
			}
			absent++
		}
	}
	if absent == 0 || found == 0 {
		t.Fatalf("term 19 is absent from %d edges and found %d times; want both", absent, found)
	}
}

func TestPostingChainSpansPages(t *testing.T) {
	// Many objects with the same term on one edge forces a multi-page
	// chain.
	g := graph.New()
	g.AddNode(geo.Point{X: 0, Y: 0})
	g.AddNode(geo.Point{X: 100, Y: 0})
	eid, err := g.AddEdge(0, 1, 100)
	if err != nil {
		t.Fatal(err)
	}
	g.Freeze()
	col := obj.NewCollection()
	const many = 700 // > 341 postings per page
	for i := 0; i < many; i++ {
		col.Add(graph.Position{Edge: eid, Offset: float64(i) / many * 100}, []obj.TermID{0})
	}
	pool := storage.NewBufferPool(storage.NewPageFile(), 64, nil)
	idx, err := Build(g, col, 1, pool)
	if err != nil {
		t.Fatal(err)
	}
	if idx.ListPages(0) < 3 {
		t.Fatalf("expected multi-page chain, got %d pages", idx.ListPages(0))
	}
	if idx.Roots().PostingPages != 3 {
		t.Fatalf("a list of %d postings took %d overflow pages, want 3", many, idx.Roots().PostingPages)
	}
	loader := &Loader{Idx: idx, Coder: GraphZCoder{G: g}}
	got, err := loader.LoadObjects(context.Background(), eid, []obj.TermID{0})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != many {
		t.Fatalf("chain read returned %d of %d postings", len(got), many)
	}
	if idx.overflowReads.Load() != 1 {
		t.Fatalf("one probe of an overflow list counted %d overflow reads", idx.overflowReads.Load())
	}
}

// TestProbeCostsTheHeight: the tree's directory is in memory, so a probe of
// a list that lives in its leaf makes exactly one page request, found or
// not, however many leaves the tree has; a list in the overflow heap costs
// the pages of its chain on top, and is the only thing the overflow
// counter counts.
func TestProbeCostsTheHeight(t *testing.T) {
	g, col, idx, _, stats := buildFixture(t, 6000, 9)
	hot := graph.EdgeID(3)
	const long = 2*recordsPerPage + 40 // an overflow chain of three pages
	for i := 0; i < long; i++ {
		col.Add(graph.Position{Edge: hot, Offset: float64(i) / long}, []obj.TermID{7})
	}
	pool := storage.NewBufferPool(storage.NewPageFile(), 256, stats)
	idx, err := Build(g, col, 20, pool)
	if err != nil {
		t.Fatal(err)
	}
	if leaves := len(idx.Roots().Tree.Leaves); leaves < 2 {
		t.Fatalf("a tree of %d leaves: the fixture is too small to show a directory search", leaves)
	}
	coder := GraphZCoder{G: g}
	requests := func(term obj.TermID, e graph.EdgeID) (int64, int) {
		before := stats.Snapshot().LogicalRead
		ps, err := termPostings(idx, term, e, coder.EdgeZCode(e))
		if err != nil {
			t.Fatal(err)
		}
		return stats.Snapshot().LogicalRead - before, len(ps)
	}
	inline, longest := 0, 0
	for _, e := range col.Edges() {
		for term := obj.TermID(0); term < 20; term++ {
			if e == hot && term == 7 {
				continue
			}
			got, n := requests(term, e)
			if got != 1 {
				t.Fatalf("probe of term %d on edge %d (%d postings) made %d page requests, want 1", term, e, n, got)
			}
			if n > 0 {
				inline++
			}
			longest = max(longest, n)
		}
	}
	if inline == 0 || longest < 2 {
		t.Fatalf("%d probes found a list, the longest of %d postings: the test is vacuous", inline, longest)
	}
	if idx.overflowReads.Load() != 0 {
		t.Fatalf("probes of inline lists counted %d overflow reads", idx.overflowReads.Load())
	}
	if got, n := requests(7, hot); got != 1+3 || n < long {
		t.Fatalf("probe of the %d-posting list made %d page requests and found %d, want 1 plus a chain of 3", long, got, n)
	}
	if idx.overflowReads.Load() != 1 {
		t.Fatalf("one probe of the overflow list counted %d overflow reads", idx.overflowReads.Load())
	}
}

func TestIndexCountsIO(t *testing.T) {
	g, col, _, loader, stats := buildFixture(t, 500, 5)
	edges := col.Edges()
	if len(edges) == 0 {
		t.Fatal("no object edges")
	}
	var nonEmptyTerm obj.TermID = -1
	var probe graph.EdgeID
	for _, e := range edges {
		ids := col.OnEdge(e)
		if len(ids) > 0 {
			nonEmptyTerm = col.Get(ids[0]).Terms[0]
			probe = e
			break
		}
	}
	if nonEmptyTerm < 0 {
		t.Fatal("no term found")
	}
	stats.Reset()
	if _, err := loader.LoadObjects(context.Background(), probe, []obj.TermID{nonEmptyTerm}); err != nil {
		t.Fatal(err)
	}
	if stats.Snapshot().LogicalRead == 0 {
		t.Error("load performed no page reads")
	}
	_ = g
}

func TestEdgeKeyOrderingByZCode(t *testing.T) {
	// Keys of the same term order by the edge's rank, so that edges of one
	// CCAM region, in Z-order within it, are adjacent in the B+-tree.
	k1 := edgeKey(5, 100)
	k2 := edgeKey(5, 200)
	if k1 >= k2 {
		t.Error("keys not ordered by rank")
	}
	// Different terms never collide even with identical ranks.
	if edgeKey(5, 100) == edgeKey(6, 100) {
		t.Error("term separation broken")
	}
}

func TestSizeAndTreeExposed(t *testing.T) {
	_, _, idx, _, _ := buildFixture(t, 300, 6)
	if idx.SizeBytes() <= 0 {
		t.Error("SizeBytes not positive")
	}
	if idx.Tree() == nil || idx.Tree().Len() == 0 {
		t.Error("tree empty")
	}
}

func TestBuildRejectsOutOfVocab(t *testing.T) {
	g := graph.New()
	g.AddNode(geo.Point{})
	g.AddNode(geo.Point{X: 1})
	eid, err := g.AddEdge(0, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	g.Freeze()
	col := obj.NewCollection()
	col.Add(graph.Position{Edge: eid}, []obj.TermID{5})
	pool := storage.NewBufferPool(storage.NewPageFile(), 8, nil)
	if _, err := Build(g, col, 3, pool); err == nil {
		t.Error("out-of-vocabulary term accepted")
	}
}

func TestZCellCollisionHandled(t *testing.T) {
	// Two edges whose centers share a Z-cell must keep separate postings.
	g := graph.New()
	g.AddNode(geo.Point{X: 0, Y: 0})
	g.AddNode(geo.Point{X: 1e-7, Y: 0})
	g.AddNode(geo.Point{X: 0, Y: 1e-7})
	e1, err := g.AddEdge(0, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := g.AddEdge(0, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	g.Freeze()
	if geo.ZCode(g.EdgeCenter(e1)) != geo.ZCode(g.EdgeCenter(e2)) {
		t.Fatal("centers no longer collide; adjust epsilon")
	}
	coder := GraphZCoder{G: g}
	if coder.EdgeZCode(e1) == coder.EdgeZCode(e2) {
		t.Fatalf("edges %d and %d share the key cell %d", e1, e2, coder.EdgeZCode(e1))
	}
	col := obj.NewCollection()
	a := col.Add(graph.Position{Edge: e1, Offset: 0}, []obj.TermID{0})
	b := col.Add(graph.Position{Edge: e2, Offset: 0}, []obj.TermID{0})
	pool := storage.NewBufferPool(storage.NewPageFile(), 8, nil)
	idx, err := Build(g, col, 1, pool)
	if err != nil {
		t.Fatal(err)
	}
	loader := &Loader{Idx: idx, Coder: coder}
	got1, err := loader.LoadObjects(context.Background(), e1, []obj.TermID{0})
	if err != nil {
		t.Fatal(err)
	}
	got2, err := loader.LoadObjects(context.Background(), e2, []obj.TermID{0})
	if err != nil {
		t.Fatal(err)
	}
	if len(got1) != 1 || got1[0].ID != a {
		t.Errorf("edge 1 load = %v", got1)
	}
	if len(got2) != 1 || got2[0].ID != b {
		t.Errorf("edge 2 load = %v", got2)
	}
}

func TestLoaderIntersectionOrder(t *testing.T) {
	// Results are sorted by object ID regardless of posting order.
	g := graph.New()
	g.AddNode(geo.Point{})
	g.AddNode(geo.Point{X: 10})
	eid, err := g.AddEdge(0, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	g.Freeze()
	col := obj.NewCollection()
	var want []obj.ID
	for i := 0; i < 5; i++ {
		// Decreasing offsets: posting order is offset order, not ID order.
		id := col.Add(graph.Position{Edge: eid, Offset: float64(10 - i)}, []obj.TermID{0, 1})
		want = append(want, id)
	}
	pool := storage.NewBufferPool(storage.NewPageFile(), 8, nil)
	idx, err := Build(g, col, 2, pool)
	if err != nil {
		t.Fatal(err)
	}
	loader := &Loader{Idx: idx, Coder: GraphZCoder{G: g}}
	got, err := loader.LoadObjects(context.Background(), eid, []obj.TermID{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	var ids []obj.ID
	for _, r := range got {
		ids = append(ids, r.ID)
	}
	if !reflect.DeepEqual(ids, want) {
		t.Errorf("load order = %v, want %v", ids, want)
	}
}

// TestDynamicModel drives random inserts and removals against a model,
// verifying LoadObjects after every mutation batch.
func TestDynamicModel(t *testing.T) {
	g, col, idx, loader, _ := buildFixture(t, 200, 7)
	coder := GraphZCoder{G: g}
	// Mutations go through the copy-on-write forms over the index's own
	// pool and a private root set, which the probes below then read.
	roots := idx.Roots()
	rng := rand.New(rand.NewSource(8))
	nextID := obj.ID(col.Len())
	// Model: live objects (the collection tracks them too).
	for batch := 0; batch < 20; batch++ {
		// A few inserts.
		for i := 0; i < 5; i++ {
			e := graph.EdgeID(rng.Intn(g.NumEdges()))
			nt := 1 + rng.Intn(3)
			terms := make([]obj.TermID, nt)
			for j := range terms {
				terms[j] = obj.TermID(rng.Intn(20))
			}
			pos := graph.Position{Edge: e, Offset: rng.Float64() * g.Edge(e).Length}
			id := col.Add(pos, terms)
			if id != nextID {
				t.Fatalf("collection assigned %d, expected %d", id, nextID)
			}
			nextID++
			o := col.Get(id)
			if err := idx.InsertObjectAt(idx.Pool(), &roots, coder.EdgeZCode(e), id, pos.Offset, o.Terms); err != nil {
				t.Fatal(err)
			}
		}
		// A few removals of random live objects.
		for i := 0; i < 3; i++ {
			id := obj.ID(rng.Intn(int(nextID)))
			if col.Removed(id) {
				continue
			}
			o := col.Get(id)
			if err := idx.RemoveObjectAt(idx.Pool(), &roots, coder.EdgeZCode(o.Pos.Edge), id, o.Terms); err != nil {
				t.Fatal(err)
			}
			if err := col.Remove(id); err != nil {
				t.Fatal(err)
			}
		}
		// Verify random probes against the collection.
		for probe := 0; probe < 30; probe++ {
			e := graph.EdgeID(rng.Intn(g.NumEdges()))
			ts := obj.NormalizeTerms([]obj.TermID{
				obj.TermID(rng.Intn(20)), obj.TermID(rng.Intn(20)),
			})
			got, err := loader.At(idx.Pool(), &roots).LoadObjects(context.Background(), e, ts)
			if err != nil {
				t.Fatal(err)
			}
			want := bruteLoad(col, e, ts)
			if len(got) != len(want) {
				t.Fatalf("batch %d edge %d terms %v: got %d, want %d",
					batch, e, ts, len(got), len(want))
			}
			for _, r := range got {
				if !want[r.ID] {
					t.Fatalf("spurious object %d", r.ID)
				}
			}
			any, err := loader.At(idx.Pool(), &roots).LoadObjectsAny(context.Background(), e, ts)
			if err != nil {
				t.Fatal(err)
			}
			checkUnion(t, col, e, ts, any)
		}
	}
}

// checkUnion compares a union load with a linear scan of the edge's
// objects: the same objects in ascending ID, each with its position and
// the number of query terms it carries.
func checkUnion(t testing.TB, col *obj.Collection, e graph.EdgeID, ts []obj.TermID, got []index.ObjectMatch) {
	t.Helper()
	var want []index.ObjectMatch
	ids := append([]obj.ID(nil), col.OnEdge(e)...)
	slices.Sort(ids)
	for _, id := range ids {
		o, matched := col.Get(id), index.TermSet{}
		for j, q := range ts {
			if o.HasTerm(q) {
				matched.Add(j)
			}
		}
		if matched.Len() > 0 {
			want = append(want, index.ObjectMatch{Ref: index.ObjectRef{ID: id, Edge: e, Offset: o.Pos.Offset}, Terms: matched})
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("edge %d terms %v: union load\n got %v\nwant %v", e, ts, got, want)
	}
}

// TestListCrossesOverflowBoundAndBack grows one key's list posting by
// posting past MaxInlineRecords and removes them again: the list moves to
// the overflow heap exactly when it no longer fits a leaf, comes back when
// it does, reads the same either side, and only the crossing allocates
// heap pages.
func TestListCrossesOverflowBoundAndBack(t *testing.T) {
	g := graph.New()
	g.AddNode(geo.Point{X: 0, Y: 0})
	g.AddNode(geo.Point{X: 100, Y: 0})
	eid, err := g.AddEdge(0, 1, 100)
	if err != nil {
		t.Fatal(err)
	}
	g.Freeze()
	col := obj.NewCollection()
	col.Add(graph.Position{Edge: eid, Offset: 50}, []obj.TermID{0, 1})
	pool := storage.NewBufferPool(storage.NewPageFile(), 64, nil)
	idx, err := Build(g, col, 2, pool)
	if err != nil {
		t.Fatal(err)
	}
	coder := GraphZCoder{G: g}
	loader := &Loader{Idx: idx, Coder: coder}
	roots := idx.Roots()
	check := func(step string) {
		t.Helper()
		for _, ts := range [][]obj.TermID{{0}, {1}, {0, 1}} {
			got, err := loader.At(pool, &roots).LoadObjects(context.Background(), eid, ts)
			if err != nil {
				t.Fatal(err)
			}
			want := bruteLoad(col, eid, ts)
			if len(got) != len(want) {
				t.Fatalf("%s: terms %v loaded %d objects, want %d", step, ts, len(got), len(want))
			}
			for i, r := range got {
				if !want[r.ID] || r.Offset != col.Get(r.ID).Pos.Offset || (i > 0 && got[i-1].ID >= r.ID) {
					t.Fatalf("%s: terms %v loaded %v", step, ts, got)
				}
			}
			any, err := loader.At(pool, &roots).LoadObjectsAny(context.Background(), eid, ts)
			if err != nil {
				t.Fatal(err)
			}
			checkUnion(t, col, eid, ts, any)
		}
		if int(roots.TermPostings[0]) != len(bruteLoad(col, eid, []obj.TermID{0})) {
			t.Fatalf("%s: TermPostings[0] = %d", step, roots.TermPostings[0])
		}
	}
	check("as built")

	// Term 0 grows to ten past the bound; term 1 stays a single posting.
	var added []obj.ID
	for n := 2; n <= MaxInlineRecords+10; n++ {
		// Descending offsets: list order is not arrival order.
		pos := graph.Position{Edge: eid, Offset: 100 - float64(n)/2}
		id := col.Add(pos, []obj.TermID{0})
		added = append(added, id)
		if err := idx.InsertObjectAt(pool, &roots, coder.EdgeZCode(eid), id, pos.Offset, []obj.TermID{0}); err != nil {
			t.Fatal(err)
		}
		if inline := n <= MaxInlineRecords; inline != (roots.PostingPages == 0) {
			t.Fatalf("a list of %d postings (bound %d) with %d overflow pages", n, MaxInlineRecords, roots.PostingPages)
		}
		check(fmt.Sprintf("grown to %d", n))
	}
	if idx.overflowReads.Load() == 0 {
		t.Fatal("probes of a list past the bound counted no overflow read")
	}
	inlineAgainPages := 0

	for i, id := range added {
		if err := idx.RemoveObjectAt(pool, &roots, coder.EdgeZCode(eid), id, []obj.TermID{0}); err != nil {
			t.Fatal(err)
		}
		if err := col.Remove(id); err != nil {
			t.Fatal(err)
		}
		before := idx.overflowReads.Load()
		check(fmt.Sprintf("shrunk by %d", i+1))
		left := MaxInlineRecords + 10 - (i + 1)
		if inline := left <= MaxInlineRecords; inline != (idx.overflowReads.Load() == before) {
			t.Fatalf("a list of %d postings (bound %d): overflow reads %d -> %d", left, MaxInlineRecords, before, idx.overflowReads.Load())
		}
		// Only a list still past the bound is rewritten in the heap.
		if left == MaxInlineRecords {
			inlineAgainPages = roots.PostingPages
		} else if left < MaxInlineRecords && roots.PostingPages != inlineAgainPages {
			t.Fatalf("a list of %d postings, back in its leaf, moved the overflow heap %d -> %d pages", left, inlineAgainPages, roots.PostingPages)
		}
	}

	// Down to nothing: the key stays, its list is empty.
	if err := idx.RemoveObjectAt(pool, &roots, coder.EdgeZCode(eid), 0, []obj.TermID{0, 1}); err != nil {
		t.Fatal(err)
	}
	if err := col.Remove(0); err != nil {
		t.Fatal(err)
	}
	check("emptied")
	if roots.Tree.Count != 2 {
		t.Fatalf("emptied lists left %d keys, want the 2 that were built", roots.Tree.Count)
	}
	// Removing what is not there changes nothing.
	pages := len(roots.Tree.Leaves)
	if err := idx.RemoveObjectAt(pool, &roots, coder.EdgeZCode(eid), 0, []obj.TermID{0, 1}); err != nil {
		t.Fatal(err)
	}
	if roots.TermPostings[0] != 0 || roots.TermPostings[1] != 0 || len(roots.Tree.Leaves) != pages {
		t.Fatalf("a second removal moved the roots: %+v", roots)
	}
}

// TestPinnedReaderKeepsItsList: readers pinned before inserts that grow a
// list, split its leaf and push it to the overflow heap keep reading the
// list they pinned, while the commits go on beside them.
func TestPinnedReaderKeepsItsList(t *testing.T) {
	g, col, idx, loader, _ := buildFixture(t, 3000, 11)
	pool, coder := idx.Pool(), GraphZCoder{G: g}
	hot := col.Edges()[0]
	term := col.Get(col.OnEdge(hot)[0]).Terms[0]
	built := idx.Roots()
	old, err := loader.At(pool.ViewAt(0), &built).LoadObjects(context.Background(), hot, []obj.TermID{term})
	if err != nil || len(old) == 0 {
		t.Fatalf("the list as built: %d objects, err %v", len(old), err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rd := loader.At(pool.ViewAt(0), &built)
			for {
				select {
				case <-stop:
					return
				default:
				}
				got, err := rd.LoadObjects(context.Background(), hot, []obj.TermID{term})
				if err != nil || !slices.Equal(got, old) {
					t.Errorf("a reader pinned at LSN 0 read %d objects (err %v), want the %d it pinned", len(got), err, len(old))
					return
				}
			}
		}()
	}

	cur := built
	leaves := len(cur.Tree.Leaves)
	nextID := obj.ID(col.Len())
	for lsn := uint64(1); lsn <= MaxInlineRecords+5; lsn++ {
		batch, next := pool.NewBatch(lsn), cur
		if err := idx.InsertObjectAt(batch, &next, coder.EdgeZCode(hot), nextID, float64(lsn)/1000, []obj.TermID{term}); err != nil {
			t.Fatal(err)
		}
		nextID++
		pool.Publish(batch, nil)
		cur = next
	}
	close(stop)
	wg.Wait()
	if len(cur.Tree.Leaves) == leaves || cur.PostingPages == built.PostingPages {
		t.Fatalf("the commits split no leaf (%d leaves) or never overflowed (%d heap pages)", len(cur.Tree.Leaves), cur.PostingPages)
	}
	now, err := loader.At(pool.ViewAt(MaxInlineRecords+5), &cur).LoadObjects(context.Background(), hot, []obj.TermID{term})
	if err != nil || len(now) != len(old)+MaxInlineRecords+5 {
		t.Fatalf("a reader at the last LSN read %d objects (err %v), want %d", len(now), err, len(old)+MaxInlineRecords+5)
	}
}

// TestProbeChecksContextOnMemoHit is the index-side twin of core's
// TestSettleChecksContextOnMemoHit: once a query's page memo holds every
// page of a probe, repeating the probe asks the pool for nothing, and a
// context cancelled in between still stops it on its first page.
func TestProbeChecksContextOnMemoHit(t *testing.T) {
	_, col, idx, loader, stats := buildFixture(t, 500, 5)
	e := col.Edges()[0]
	terms := col.Get(col.OnEdge(e)[0]).Terms[:1]
	roots := idx.Roots()
	rd := loader.At(storage.NewPageMemo(idx.Pool().ViewAt(0), 64), &roots)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	want, err := rd.LoadObjects(ctx, e, terms)
	if err != nil || len(want) == 0 {
		t.Fatalf("first probe: %d objects, err %v", len(want), err)
	}
	before := stats.Snapshot()
	got, err := rd.LoadObjects(ctx, e, terms)
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("probe from the memo: %v, err %v; want %v", got, err, want)
	}
	if stats.Snapshot() != before {
		t.Fatalf("a probe served from the memo reached the pool: %+v -> %+v", before, stats.Snapshot())
	}
	cancel()
	if _, err := rd.LoadObjects(ctx, e, terms); !errors.Is(err, context.Canceled) {
		t.Fatalf("probe on a warm memo under a cancelled context: %v, want context.Canceled", err)
	}
	if _, err := rd.LoadObjectsAny(ctx, e, terms); !errors.Is(err, context.Canceled) {
		t.Fatalf("union probe on a warm memo under a cancelled context: %v, want context.Canceled", err)
	}
}

// buildReference is the builder Build replaced: it groups the postings by
// key in a map, sorts the keys and sorts every list. It is the definition
// the page file, the roots and the counts of Build are held to.
func buildReference(g *graph.Graph, c *obj.Collection, vocabSize int, pool *storage.BufferPool) (*Index, error) {
	idx := &Index{pool: pool, overflowReads: new(atomic.Int64)}
	idx.roots.TermPostings = make([]int32, vocabSize)

	type listEntry struct {
		key      uint64
		postings []Posting
	}
	byKey := make(map[uint64]*listEntry)
	rank := rankEdges(g)
	for _, e := range c.Edges() {
		z := uint64(rank[e])
		for _, id := range c.OnEdge(e) {
			o := c.Get(id)
			for _, t := range o.Terms {
				if int(t) >= vocabSize {
					return nil, fmt.Errorf("invindex: term %d outside vocabulary of %d", t, vocabSize)
				}
				k := edgeKey(t, z)
				le := byKey[k]
				if le == nil {
					le = &listEntry{key: k}
					byKey[k] = le
				}
				le.postings = append(le.postings, Posting{Object: id, Edge: e, Offset: o.Pos.Offset})
				idx.roots.TermPostings[t]++
			}
		}
	}
	keys := make([]*listEntry, 0, len(byKey))
	for _, le := range byKey {
		keys = append(keys, le)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].key < keys[j].key })

	var arena []byte
	entries := make([]btree.Entry, 0, len(keys))
	for _, le := range keys {
		start := len(arena)
		var err error
		if arena, err = appendListValue(arena, pool, &idx.roots, le.postings); err != nil {
			return nil, err
		}
		entries = append(entries, btree.Entry{Key: le.key, Value: arena[start:len(arena):len(arena)]})
	}
	tree, err := btree.BulkLoad(pool, entries)
	if err != nil {
		return nil, err
	}
	idx.roots.Tree = tree.Meta()
	return idx, pool.Flush()
}

// TestBuildMatchesReference: the index Build writes is the reference
// builder's, page for page, with the same roots, counts and size; where the
// reference refuses a collection Build refuses it with the same error.
func TestBuildMatchesReference(t *testing.T) {
	type fixture struct {
		name  string
		g     *graph.Graph
		col   *obj.Collection
		vocab int
		// overflow, sharedCell: what the fixture must contain to test
		// what its name says.
		overflow, sharedCell bool
	}
	var fixtures []fixture
	for _, p := range []struct {
		preset dataset.Preset
		scale  int
		seed   int64
	}{{dataset.PresetNA, 200, 1}, {dataset.PresetSYN, 400, 2}, {dataset.PresetSF, 900, 3}} {
		ds, err := dataset.GeneratePreset(p.preset, p.scale, p.seed)
		if err != nil {
			t.Fatal(err)
		}
		fixtures = append(fixtures, fixture{name: fmt.Sprintf("%s/%d", p.preset, p.scale), g: ds.Graph, col: ds.Objects, vocab: ds.VocabSize})
	}
	for seed := int64(1); seed <= 3; seed++ {
		g, col, _, _, _ := buildFixture(t, 3000, seed)
		fixtures = append(fixtures, fixture{name: fmt.Sprintf("random/%d", seed), g: g, col: col, vocab: 20})
	}

	// Three edges from one node whose centers share a Z-cell: every term
	// has a key on each edge, whose postings go by (offset, object)
	// although the objects arrive in the opposite order.
	shared := graph.New()
	shared.AddNode(geo.Point{X: 0, Y: 0})
	shared.AddNode(geo.Point{X: 1e-7, Y: 0})
	shared.AddNode(geo.Point{X: 0, Y: 1e-7})
	shared.AddNode(geo.Point{X: 1e-7, Y: 1e-7})
	for n := graph.NodeID(1); n <= 3; n++ {
		if _, err := shared.AddEdge(0, n, 1); err != nil {
			t.Fatal(err)
		}
	}
	shared.Freeze()
	sharedCol := obj.NewCollection()
	for i := 0; i < 60; i++ {
		e := graph.EdgeID(2 - i%3)
		sharedCol.Add(graph.Position{Edge: e, Offset: float64(60-i) / 100}, []obj.TermID{obj.TermID(i % 2), 2})
		sharedCol.Add(graph.Position{Edge: e, Offset: float64(60-i) / 100}, []obj.TermID{2}) // an offset tie
	}
	fixtures = append(fixtures, fixture{name: "shared Z-cell", g: shared, col: sharedCol, vocab: 3, sharedCell: true})

	// One term on one edge MaxInlineRecords times, once more, and enough
	// for a chain of pages, beside short lists: the bound and the heap.
	g, hot, _, _, _ := buildFixture(t, 2000, 4)
	for i := 0; i < MaxInlineRecords; i++ {
		hot.Add(graph.Position{Edge: 1, Offset: float64(i) / 100}, []obj.TermID{3})
		hot.Add(graph.Position{Edge: 2, Offset: float64(i) / 100}, []obj.TermID{3, 4})
	}
	hot.Add(graph.Position{Edge: 2, Offset: 0.5}, []obj.TermID{4})
	for i := 0; i < 2*recordsPerPage+40; i++ {
		hot.Add(graph.Position{Edge: 5, Offset: float64(i%7) / 10}, []obj.TermID{0, 19})
	}
	fixtures = append(fixtures, fixture{name: "overflow lists", g: g, col: hot, vocab: 20, overflow: true})

	// Tombstones: every third object removed, and every object of two
	// edges, so that an edge disappears from the build altogether.
	g, dead, _, _, _ := buildFixture(t, 3000, 5)
	for id := 0; id < dead.Len(); id += 3 {
		if err := dead.Remove(obj.ID(id)); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range dead.Edges()[:2] {
		for _, id := range slices.Clone(dead.OnEdge(e)) {
			if err := dead.Remove(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	fixtures = append(fixtures, fixture{name: "tombstones", g: g, col: dead, vocab: 20})

	g, _, _, _, _ = buildFixture(t, 0, 6)
	fixtures = append(fixtures, fixture{name: "empty collection", g: g, col: obj.NewCollection(), vocab: 20})
	fixtures = append(fixtures, fixture{name: "empty graph", g: graph.New(), col: obj.NewCollection(), vocab: 0})

	// Two terms outside the vocabulary on different edges: the error names
	// the one the reference meets first.
	g, alien, _, _, _ := buildFixture(t, 500, 7)
	alien.Add(graph.Position{Edge: 9}, []obj.TermID{25})
	alien.Add(graph.Position{Edge: 4}, []obj.TermID{3, 31})
	fixtures = append(fixtures, fixture{name: "term outside the vocabulary", g: g, col: alien, vocab: 20})

	pages := func(pool *storage.BufferPool) [][]byte {
		t.Helper()
		// A second pool over the file reads what the build flushed, not
		// what it left in its frames.
		disk := storage.NewBufferPool(pool.File(), 8, nil)
		out := make([][]byte, 0, pool.File().NumPages())
		for id := storage.PageID(1); int(id) <= pool.File().NumPages(); id++ {
			p, err := disk.Get(id)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, slices.Clone(p.Data()))
		}
		return out
	}
	for _, fx := range fixtures {
		t.Run(fx.name, func(t *testing.T) {
			wantPool := storage.NewBufferPool(storage.NewPageFile(), 1<<16, nil)
			want, wantErr := buildReference(fx.g, fx.col, fx.vocab, wantPool)
			gotPool := storage.NewBufferPool(storage.NewPageFile(), 1<<16, nil)
			got, gotErr := Build(fx.g, fx.col, fx.vocab, gotPool)
			if wantErr != nil || gotErr != nil {
				if wantErr == nil || gotErr == nil || wantErr.Error() != gotErr.Error() {
					t.Fatalf("Build: %v, reference: %v", gotErr, wantErr)
				}
				return
			}
			if !reflect.DeepEqual(got.Roots(), want.Roots()) {
				t.Errorf("roots = %+v, reference %+v", got.Roots(), want.Roots())
			}
			if got.SizeBytes() != want.SizeBytes() {
				t.Errorf("SizeBytes = %d, reference %d", got.SizeBytes(), want.SizeBytes())
			}
			gotPages, wantPages := pages(gotPool), pages(wantPool)
			if len(gotPages) != len(wantPages) {
				t.Fatalf("%d pages, reference %d", len(gotPages), len(wantPages))
			}
			for i := range wantPages {
				if !bytes.Equal(gotPages[i], wantPages[i]) {
					t.Fatalf("page %d differs from the reference's", i+1)
				}
			}
			if gw, ww := gotPool.Stats().DiskWrite.Load(), wantPool.Stats().DiskWrite.Load(); gw != ww {
				t.Errorf("the build wrote %d pages, the reference %d", gw, ww)
			}
			if fx.overflow && want.Roots().PostingPages < 4 {
				t.Errorf("%d overflow pages: the fixture does not reach the heap", want.Roots().PostingPages)
			}
			if n := want.Tree().Len(); fx.sharedCell && n != 3*fx.vocab {
				t.Errorf("%d keys for %d terms on 3 edges: edges of one Z-cell share a key", n, fx.vocab)
			}
		})
	}
}

// TestRarestFirstMatchesQueryOrder: the probe order changes which lists a
// probe reads, never what it returns. Random one-to-four-term lists on
// occupied edges — with duplicate terms, distinct terms of equal count, a
// term whose list on the edge overflowed to the heap and terms absent
// from the edge — return the same refs rarest first as in query order,
// through random insert and remove batches that reorder the terms' counts.
func TestRarestFirstMatchesQueryOrder(t *testing.T) {
	const vocab = 20
	g, col, idx, _, _ := buildFixture(t, 400, 11)
	coder, pool, ctx := GraphZCoder{G: g}, idx.Pool(), context.Background()
	roots := idx.Roots()
	rng := rand.New(rand.NewSource(12))
	insert := func(e graph.EdgeID, terms []obj.TermID) {
		pos := graph.Position{Edge: e, Offset: rng.Float64() * g.Edge(e).Length}
		id := col.Add(pos, terms)
		if err := idx.InsertObjectAt(pool, &roots, coder.EdgeZCode(e), id, pos.Offset, col.Get(id).Terms); err != nil {
			t.Fatal(err)
		}
	}

	// A burst of objects on one edge gives term 0 an overflow list there.
	burst := col.Edges()[0]
	for i := 0; i <= MaxInlineRecords; i++ {
		insert(burst, []obj.TermID{0, obj.TermID(1 + rng.Intn(vocab-1))})
	}
	if v, err := btree.GetAt(ctx, pool, roots.Tree, edgeKey(0, coder.EdgeZCode(burst))); err != nil || !isOverflowRef(v) {
		t.Fatalf("term 0 on edge %d: %d-byte value, err %v; want an overflow list", burst, len(v), err)
	}

	var dup, tie, overflow, absent, flip bool
	var prev []obj.TermID
	for batch := 0; batch < 20; batch++ {
		for i := 0; i < 8; i++ {
			terms := make([]obj.TermID, 1+rng.Intn(3))
			for j := range terms {
				terms[j] = obj.TermID(rng.Intn(vocab))
			}
			insert(graph.EdgeID(rng.Intn(g.NumEdges())), terms)
		}
		for i := 0; i < 4; i++ {
			id := obj.ID(rng.Intn(col.Len()))
			if col.Removed(id) {
				continue
			}
			o := col.Get(id)
			if err := idx.RemoveObjectAt(pool, &roots, coder.EdgeZCode(o.Pos.Edge), id, o.Terms); err != nil {
				t.Fatal(err)
			}
			if err := col.Remove(id); err != nil {
				t.Fatal(err)
			}
		}
		order := make([]obj.TermID, vocab)
		for i := range order {
			order[i] = obj.TermID(i)
		}
		order = rarestFirst(order, roots.TermPostings)
		flip = flip || prev != nil && !slices.Equal(order, prev)
		prev = order

		queryOrder := Reader{Idx: idx, PR: pool, Roots: &roots, Coder: coder}
		rarest := queryOrder
		rarest.SelectivityOrder = true
		edges := col.Edges()
		for probe := 0; probe < 40; probe++ {
			e := edges[rng.Intn(len(edges))]
			if probe%8 == 0 {
				e = burst
			}
			on := col.OnEdge(e)
			terms := make([]obj.TermID, 1+rng.Intn(4))
			for j := range terms {
				if rng.Intn(2) == 0 {
					ts := col.Get(on[rng.Intn(len(on))]).Terms
					terms[j] = ts[rng.Intn(len(ts))]
				} else {
					terms[j] = obj.TermID(rng.Intn(vocab))
				}
			}
			want, err := queryOrder.LoadObjects(ctx, e, terms)
			if err != nil {
				t.Fatal(err)
			}
			got, err := rarest.LoadObjects(ctx, e, terms)
			if err != nil {
				t.Fatal(err)
			}
			what := fmt.Sprintf("batch %d, edge %d, terms %v", batch, e, terms)
			same := len(got) == len(want)
			for i := 0; same && i < len(got); i++ {
				same = got[i].ID == want[i].ID && got[i].Edge == want[i].Edge &&
					math.Float64bits(got[i].Offset) == math.Float64bits(want[i].Offset)
			}
			if !same {
				t.Fatalf("%s: rarest first %v, query order %v", what, got, want)
			}
			if scan := bruteLoad(col, e, obj.NormalizeTerms(slices.Clone(terms))); len(want) != len(scan) {
				t.Fatalf("%s: %d objects, a scan of the edge finds %d", what, len(want), len(scan))
			}

			empty := 0
			for i, a := range terms {
				if ps, err := queryOrder.TermPostingsCtx(ctx, a, e, coder.EdgeZCode(e)); err != nil {
					t.Fatal(err)
				} else if len(ps) == 0 {
					empty++
				}
				overflow = overflow || e == burst && a == 0
				for _, b := range terms[:i] {
					dup = dup || a == b
					tie = tie || a != b && roots.TermPostings[a] == roots.TermPostings[b]
				}
			}
			absent = absent || 0 < empty && empty < len(terms)
		}
	}
	if !dup || !tie || !overflow || !absent || !flip {
		t.Fatalf("cases not covered: duplicate %v, tie %v, overflow %v, absent term %v, reordered counts %v",
			dup, tie, overflow, absent, flip)
	}
}

// TestRarestFirstAllocatesNothing: ordering a probe's terms costs no
// allocation. A probe whose terms all hold the object it finds reads every
// list in either order, and allocates as often rarest first as in query
// order, most common term first.
func TestRarestFirstAllocatesNothing(t *testing.T) {
	_, col, idx, loader, _ := buildFixture(t, 400, 13)
	roots := idx.Roots()
	counts := roots.TermPostings
	var e graph.EdgeID
	var terms []obj.TermID
	for id := range col.Len() {
		o := col.Get(obj.ID(id))
		ts := slices.Clone(o.Terms)
		slices.SortStableFunc(ts, func(a, b obj.TermID) int { return cmp.Compare(counts[b], counts[a]) })
		if len(ts) >= 3 && counts[ts[0]] > counts[ts[len(ts)-1]] {
			e, terms = o.Pos.Edge, ts
			break
		}
	}
	if terms == nil {
		t.Fatal("no object carries three terms of different counts")
	}
	queryOrder := loader.At(idx.Pool(), &roots)
	rarest := queryOrder
	rarest.SelectivityOrder = true
	ctx := context.Background()
	allocs := func(rd Reader) float64 {
		return testing.AllocsPerRun(100, func() {
			if refs, err := rd.LoadObjects(ctx, e, terms); err != nil || len(refs) == 0 {
				t.Fatalf("edge %d, terms %v: %d objects, err %v", e, terms, len(refs), err)
			}
		})
	}
	if got, want := allocs(rarest), allocs(queryOrder); got != want {
		t.Errorf("edge %d, terms %v: %v allocations per probe rarest first, %v in query order", e, terms, got, want)
	}
}
