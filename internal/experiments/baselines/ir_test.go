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

func irFixture(t testing.TB, seed int64) (*graph.Graph, *obj.Collection, *InvertedRTree) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := graph.New()
	const n = 60
	for i := 0; i < n; i++ {
		g.AddNode(geo.Point{X: rng.Float64() * geo.WorldMax, Y: rng.Float64() * geo.WorldMax})
	}
	for i := 1; i < n; i++ {
		if _, err := g.AddEdge(graph.NodeID(i-1), graph.NodeID(i), 1+rng.Float64()*5); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 40; i++ {
		a, b := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
		if a != b {
			_, _ = g.AddEdge(a, b, 1+rng.Float64()*5)
		}
	}
	g.Freeze()

	const vocab = 12
	col := obj.NewCollection()
	for i := 0; i < 500; i++ {
		e := graph.EdgeID(rng.Intn(g.NumEdges()))
		ts := make([]obj.TermID, 1+rng.Intn(3))
		for j := range ts {
			ts[j] = obj.TermID(rng.Intn(vocab))
		}
		col.Add(graph.Position{Edge: e, Offset: rng.Float64() * g.Edge(e).Length}, ts)
	}
	pool := storage.NewBufferPool(storage.NewPageFile(), 512, nil)
	idx, err := BuildIR(g, col, vocab, pool)
	if err != nil {
		t.Fatal(err)
	}
	return g, col, idx
}

func TestIRMatchesBruteForce(t *testing.T) {
	g, col, idx := irFixture(t, 1)
	rng := rand.New(rand.NewSource(2))
	nonEmpty := 0
	for trial := 0; trial < 400; trial++ {
		e := graph.EdgeID(rng.Intn(g.NumEdges()))
		ts := obj.NormalizeTerms([]obj.TermID{
			obj.TermID(rng.Intn(12)), obj.TermID(rng.Intn(12)),
		})
		got, err := idx.LoadObjects(context.Background(), e, ts)
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
				t.Fatalf("spurious object %d on edge %d", r.ID, e)
			}
			// Offsets must reproduce the object's position closely (they
			// are reconstructed from leaf geometry).
			o := col.Get(r.ID)
			if diff := r.Offset - o.Pos.Offset; diff > 1e-6 || diff < -1e-6 {
				t.Fatalf("object %d offset %v, want %v", r.ID, r.Offset, o.Pos.Offset)
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

func TestIREmptyAndUnknownTerms(t *testing.T) {
	_, _, idx := irFixture(t, 3)
	got, err := idx.LoadObjects(context.Background(), 0, nil)
	if err != nil || got != nil {
		t.Errorf("empty terms: %v, %v", got, err)
	}
	got, err = idx.LoadObjects(context.Background(), 0, []obj.TermID{999})
	if err != nil || got != nil {
		t.Errorf("unknown term: %v, %v", got, err)
	}
}

func TestIRSizeAndTrees(t *testing.T) {
	_, _, idx := irFixture(t, 4)
	if idx.SizeBytes() <= 0 {
		t.Error("SizeBytes not positive")
	}
	if idx.NumTrees() == 0 {
		t.Error("no per-keyword trees")
	}
}

func TestIRRejectsOutOfVocab(t *testing.T) {
	g := graph.New()
	g.AddNode(geo.Point{})
	g.AddNode(geo.Point{X: 1})
	eid, err := g.AddEdge(0, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	g.Freeze()
	col := obj.NewCollection()
	col.Add(graph.Position{Edge: eid}, []obj.TermID{9})
	pool := storage.NewBufferPool(storage.NewPageFile(), 8, nil)
	if _, err := BuildIR(g, col, 3, pool); err == nil {
		t.Error("out-of-vocabulary term accepted")
	}
}
