package baselines

import (
	"context"

	"math/rand"
	"testing"

	"dsks/internal/geo"
	"dsks/internal/graph"
	"dsks/internal/obj"
	"dsks/internal/storage"
)

func edgeStoreFixture(t testing.TB, nObjects int, seed int64) (*graph.Graph, *obj.Collection, *EdgeStore) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := graph.New()
	const n = 40
	for i := 0; i < n; i++ {
		g.AddNode(geo.Point{X: rng.Float64() * geo.WorldMax, Y: rng.Float64() * geo.WorldMax})
	}
	for i := 1; i < n; i++ {
		if _, err := g.AddEdge(graph.NodeID(i-1), graph.NodeID(i), 1+rng.Float64()*5); err != nil {
			t.Fatal(err)
		}
	}
	g.Freeze()
	const vocab = 15
	col := obj.NewCollection()
	for i := 0; i < nObjects; i++ {
		e := graph.EdgeID(rng.Intn(g.NumEdges()))
		ts := make([]obj.TermID, 1+rng.Intn(4))
		for j := range ts {
			ts[j] = obj.TermID(rng.Intn(vocab))
		}
		col.Add(graph.Position{Edge: e, Offset: rng.Float64() * g.Edge(e).Length}, ts)
	}
	pool := storage.NewBufferPool(storage.NewPageFile(), 256, nil)
	st, err := BuildEdgeStore(col, vocab, pool)
	if err != nil {
		t.Fatal(err)
	}
	return g, col, st
}

func TestC1LoadObjectsMatchesBruteForce(t *testing.T) {
	g, col, st := edgeStoreFixture(t, 800, 1)
	rng := rand.New(rand.NewSource(2))
	nonEmpty := 0
	for trial := 0; trial < 300; trial++ {
		e := graph.EdgeID(rng.Intn(g.NumEdges()))
		ts := obj.NormalizeTerms([]obj.TermID{
			obj.TermID(rng.Intn(15)), obj.TermID(rng.Intn(15)),
		})
		got, err := st.LoadObjects(context.Background(), e, ts)
		if err != nil {
			t.Fatal(err)
		}
		want := map[obj.ID]bool{}
		for _, id := range col.OnEdge(e) {
			if col.Get(id).HasAllTerms(ts) {
				want[id] = true
			}
		}
		if len(got) != len(want) {
			t.Fatalf("edge %d terms %v: got %d, want %d", e, ts, len(got), len(want))
		}
		for _, r := range got {
			if !want[r.ID] {
				t.Fatalf("spurious object %d", r.ID)
			}
			o := col.Get(r.ID)
			if diff := r.Offset - o.Pos.Offset; diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("offset %v, want %v", r.Offset, o.Pos.Offset)
			}
		}
		if len(want) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty == 0 {
		t.Fatal("all probes empty; test is vacuous")
	}
}

func TestC1ChainSpansPages(t *testing.T) {
	// Many objects on one edge forces a multi-page chain.
	g := graph.New()
	g.AddNode(geo.Point{})
	g.AddNode(geo.Point{X: 100})
	eid, err := g.AddEdge(0, 1, 100)
	if err != nil {
		t.Fatal(err)
	}
	g.Freeze()
	col := obj.NewCollection()
	const many = 500
	for i := 0; i < many; i++ {
		col.Add(graph.Position{Edge: eid, Offset: float64(i) / many * 100},
			[]obj.TermID{0, 1, 2})
	}
	pool := storage.NewBufferPool(storage.NewPageFile(), 64, nil)
	st, err := BuildEdgeStore(col, 3, pool)
	if err != nil {
		t.Fatal(err)
	}
	if st.NumPages() < 3 {
		t.Fatalf("expected multi-page chain, got %d pages", st.NumPages())
	}
	got, err := st.LoadObjects(context.Background(), eid, []obj.TermID{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != many {
		t.Fatalf("chain read returned %d of %d objects", len(got), many)
	}
}

func TestC1EmptyCases(t *testing.T) {
	_, _, st := edgeStoreFixture(t, 50, 3)
	if got, err := st.LoadObjects(context.Background(), 0, nil); err != nil || got != nil {
		t.Errorf("empty terms: %v, %v", got, err)
	}
	if got, err := st.LoadObjects(context.Background(), graph.EdgeID(9999), []obj.TermID{0}); err != nil || got != nil {
		t.Errorf("unknown edge: %v, %v", got, err)
	}
}

func TestC1RejectsOutOfVocab(t *testing.T) {
	g := graph.New()
	g.AddNode(geo.Point{})
	g.AddNode(geo.Point{X: 1})
	eid, err := g.AddEdge(0, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	g.Freeze()
	col := obj.NewCollection()
	col.Add(graph.Position{Edge: eid}, []obj.TermID{7})
	pool := storage.NewBufferPool(storage.NewPageFile(), 8, nil)
	if _, err := BuildEdgeStore(col, 3, pool); err == nil {
		t.Error("out-of-vocabulary term accepted")
	}
}
