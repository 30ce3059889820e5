package invindex

import (
	"context"
	"slices"
	"testing"

	"dsks/internal/btree"
	"dsks/internal/dataset"
	"dsks/internal/graph"
	"dsks/internal/index"
	"dsks/internal/obj"
	"dsks/internal/storage"
)

// TestDecodedPostingsCarryTheProbedEdge: a record does not store its
// edge, so every posting a probe decodes, inline or from the overflow
// heap, carries the edge it was probed for, and a term's postings on an
// edge are exactly the edge's objects with the term.
func TestDecodedPostingsCarryTheProbedEdge(t *testing.T) {
	g, col, _, _, _ := buildFixture(t, 3000, 21)
	hot := col.Edges()[0]
	for i := 0; i < 2*MaxInlineRecords; i++ {
		col.Add(graph.Position{Edge: hot, Offset: float64(i) / 1000}, []obj.TermID{5})
	}
	idx, err := Build(g, col, 20, storage.NewBufferPool(storage.NewPageFile(), 256, nil))
	if err != nil {
		t.Fatal(err)
	}
	coder := GraphZCoder{G: g}
	for _, e := range col.Edges() {
		for term := obj.TermID(0); term < 20; term++ {
			ps, err := termPostings(idx, term, e, coder.EdgeZCode(e))
			if err != nil {
				t.Fatal(err)
			}
			var got []obj.ID
			for _, p := range ps {
				if p.Edge != e || p.Offset != col.Get(p.Object).Pos.Offset {
					t.Fatalf("term %d on edge %d decoded %+v", term, e, p)
				}
				got = append(got, p.Object)
			}
			var want []obj.ID
			for _, id := range col.OnEdge(e) {
				if col.Get(id).HasTerm(term) {
					want = append(want, id)
				}
			}
			slices.Sort(got)
			slices.Sort(want)
			if !slices.Equal(got, want) {
				t.Fatalf("term %d on edge %d: postings of %v, want %v", term, e, got, want)
			}
		}
	}
	if idx.overflowReads.Load() == 0 {
		t.Fatal("no probe read an overflow list; the heap's decode went untested")
	}
}

// TestInlineBoundIsEightyFour: a 12-byte record puts 84 postings in a
// leaf value. A list of exactly 84 is built into its leaf, one of 85 goes
// to the overflow heap, and both read back whole.
func TestInlineBoundIsEightyFour(t *testing.T) {
	if MaxInlineRecords != 84 || MaxInlineRecords*postingSize > btree.MaxValueSize || (MaxInlineRecords+1)*postingSize <= btree.MaxValueSize {
		t.Fatalf("MaxInlineRecords = %d for %d-byte values of %d-byte records", MaxInlineRecords, btree.MaxValueSize, postingSize)
	}
	g, _, _, _, _ := buildFixture(t, 0, 22)
	col := obj.NewCollection()
	atBound, pastBound := graph.EdgeID(1), graph.EdgeID(2)
	for i := 0; i <= MaxInlineRecords; i++ {
		if i < MaxInlineRecords {
			col.Add(graph.Position{Edge: atBound, Offset: float64(i) / 100}, []obj.TermID{0})
		}
		col.Add(graph.Position{Edge: pastBound, Offset: float64(i) / 100}, []obj.TermID{0})
	}
	pool := storage.NewBufferPool(storage.NewPageFile(), 64, nil)
	idx, err := Build(g, col, 1, pool)
	if err != nil {
		t.Fatal(err)
	}
	coder, ctx := GraphZCoder{G: g}, context.Background()
	for _, c := range []struct {
		e      graph.EdgeID
		n      int
		inline bool
	}{{atBound, MaxInlineRecords, true}, {pastBound, MaxInlineRecords + 1, false}} {
		v, err := btree.GetAt(ctx, pool, idx.Roots().Tree, edgeKey(0, coder.EdgeZCode(c.e)))
		if err != nil {
			t.Fatal(err)
		}
		if c.inline && len(v) != c.n*postingSize || !c.inline && !isOverflowRef(v) {
			t.Fatalf("a list of %d postings has a %d-byte value; inline %v", c.n, len(v), c.inline)
		}
		if ps, err := termPostings(idx, 0, c.e, coder.EdgeZCode(c.e)); err != nil || len(ps) != c.n {
			t.Fatalf("a list of %d postings read back %d (err %v)", c.n, len(ps), err)
		}
	}
	if idx.Roots().PostingPages != 1 {
		t.Fatalf("%d overflow pages, want the 1 of the list past the bound", idx.Roots().PostingPages)
	}
}

// TestInsertOntoAnEmptyEdgeAndRemoveTheLast: an object inserted on an edge
// that held none at build time opens the edge's key, reads back on it and
// on no other edge, and removing it, the key's last posting, leaves an
// empty list the probes read as nothing.
func TestInsertOntoAnEmptyEdgeAndRemoveTheLast(t *testing.T) {
	g, col, idx, loader, _ := buildFixture(t, 40, 23)
	empty := graph.InvalidEdge
	for e := range g.NumEdges() {
		if len(col.OnEdge(graph.EdgeID(e))) == 0 {
			empty = graph.EdgeID(e)
			break
		}
	}
	if empty == graph.InvalidEdge {
		t.Fatal("every edge holds an object; the fixture has no empty edge")
	}
	roots, ctx, terms := idx.Roots(), context.Background(), []obj.TermID{3, 8}
	key := GraphZCoder{G: g}.EdgeZCode(empty)
	keys := roots.Tree.Count
	id := col.Add(graph.Position{Edge: empty, Offset: 0.25}, terms)
	if err := idx.InsertObjectAt(idx.Pool(), &roots, key, id, 0.25, terms); err != nil {
		t.Fatal(err)
	}
	if roots.Tree.Count != keys+len(terms) {
		t.Fatalf("the insert left %d keys, want %d + %d", roots.Tree.Count, keys, len(terms))
	}
	rd := loader.At(idx.Pool(), &roots)
	got, err := rd.LoadObjects(ctx, empty, terms)
	if err != nil || len(got) != 1 || got[0].ID != id || got[0].Edge != empty || got[0].Offset != 0.25 {
		t.Fatalf("the inserted object on edge %d loaded as %v (err %v)", empty, got, err)
	}
	for e := range g.NumEdges() {
		if refs, err := rd.LoadObjects(ctx, graph.EdgeID(e), terms); err != nil || graph.EdgeID(e) != empty && slices.ContainsFunc(refs, func(r index.ObjectRef) bool { return r.ID == id }) {
			t.Fatalf("edge %d loaded %v (err %v)", e, refs, err)
		}
	}

	if err := idx.RemoveObjectAt(idx.Pool(), &roots, key, id, terms); err != nil {
		t.Fatal(err)
	}
	for _, term := range terms {
		v, err := btree.GetAt(ctx, idx.Pool(), roots.Tree, edgeKey(term, key))
		if err != nil || len(v) != 0 {
			t.Fatalf("term %d: the emptied key holds %d bytes (err %v), want an empty list", term, len(v), err)
		}
		if ps, err := rd.TermPostingsCtx(ctx, term, empty, key); err != nil || len(ps) != 0 {
			t.Fatalf("term %d: the emptied key read %v (err %v)", term, ps, err)
		}
	}
	if got, err := rd.LoadObjects(ctx, empty, terms); err != nil || got != nil {
		t.Fatalf("the emptied edge loaded %v (err %v)", got, err)
	}
	if roots.TermPostings[3] != idx.Roots().TermPostings[3] || roots.TermPostings[8] != idx.Roots().TermPostings[8] {
		t.Fatalf("posting counts %d/%d after insert and remove, built %d/%d",
			roots.TermPostings[3], roots.TermPostings[8], idx.Roots().TermPostings[3], idx.Roots().TermPostings[8])
	}
}

// TestGraphZCoderOnAFreshGraph pins the form a client outside the package
// builds its loader in (Loader{Idx, Coder: GraphZCoder{G}}): over a graph
// value generated anew, whose rank table is not yet made, it finds every
// object of the collection on its own edge under its own terms.
func TestGraphZCoderOnAFreshGraph(t *testing.T) {
	built, err := dataset.GeneratePreset(dataset.PresetNA, 200, 5)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := Build(built.Graph, built.Objects, built.VocabSize, storage.NewBufferPool(storage.NewPageFile(), 1<<12, nil))
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := dataset.GeneratePreset(dataset.PresetNA, 200, 5)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Graph == built.Graph {
		t.Fatal("the two generations share a graph value")
	}
	loader := &Loader{Idx: idx, Coder: GraphZCoder{G: fresh.Graph}}
	col := built.Objects
	for id := range col.Len() {
		o := col.Get(obj.ID(id))
		refs, err := loader.LoadObjects(context.Background(), o.Pos.Edge, o.Terms[:min(2, len(o.Terms))])
		if err != nil {
			t.Fatal(err)
		}
		if !slices.ContainsFunc(refs, func(r index.ObjectRef) bool {
			return r.ID == obj.ID(id) && r.Edge == o.Pos.Edge && r.Offset == o.Pos.Offset
		}) {
			t.Fatalf("object %d on edge %d not found under terms %v: %v", id, o.Pos.Edge, o.Terms, refs)
		}
	}
}
