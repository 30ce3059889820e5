package baselines

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"dsks/internal/graph"
	"dsks/internal/invindex"
	"dsks/internal/obj"
	"dsks/internal/sig"
	"dsks/internal/storage"
)

func TestSIFGSoundAndTighter(t *testing.T) {
	g, col, _ := irFixture(t, 15)
	const vocab = 12
	pool := storage.NewBufferPool(storage.NewPageFile(), 512, nil)
	inv, err := invindex.Build(g, col, vocab, pool)
	if err != nil {
		t.Fatal(err)
	}
	coder := invindex.GraphZCoder{G: g}
	base, err := sig.BuildSIF(g, col, vocab, inv, coder, sig.Options{})
	if err != nil {
		t.Fatal(err)
	}
	grp := BuildGroup(base, &invindex.Loader{Idx: inv, Coder: coder}, col, vocab, 8)
	if grp.NumPairs() == 0 {
		t.Fatal("no pairs materialized")
	}
	if grp.ExtraSizeBytes() <= 0 {
		t.Fatal("no extra space accounted")
	}
	rng := rand.New(rand.NewSource(16))
	for trial := 0; trial < 400; trial++ {
		e := graph.EdgeID(rng.Intn(g.NumEdges()))
		ts := obj.NormalizeTerms([]obj.TermID{
			obj.TermID(rng.Intn(vocab)), obj.TermID(rng.Intn(vocab)),
		})
		got, err := grp.LoadObjects(context.Background(), e, ts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := base.LoadObjects(context.Background(), e, ts); err != nil {
			t.Fatal(err)
		}
		want := 0
		for _, id := range col.OnEdge(e) {
			if col.Get(id).HasAllTerms(ts) {
				want++
			}
		}
		if len(got) != want {
			t.Fatalf("SIF-G lost objects: got %d, want %d", len(got), want)
		}
	}
	if a, b := base.Counters().FalseHits, grp.Counters().FalseHits; b > a {
		t.Errorf("SIF-G false hits %d exceed SIF's %d", b, a)
	}
}

func TestRealLog(t *testing.T) {
	objTerms := [][]obj.TermID{{0, 1}, {0}, {0, 2}}
	real := NewRealLog([][]obj.TermID{{0, 1}, {1, 0}, {5, 6}})
	if len(real.Queries) != 2 {
		t.Fatalf("real log has %d distinct queries", len(real.Queries))
	}
	forEdge := real.ForEdge(0, objTerms)
	// {5,6} can't touch this edge; only {0,1} remains.
	if len(forEdge) != 1 || forEdge[0].Terms[0] != 0 || forEdge[0].Terms[1] != 1 {
		t.Errorf("real log filter = %+v", forEdge)
	}
	if math.Abs(forEdge[0].Prob-2.0/3) > 1e-9 {
		t.Errorf("real log prob = %v", forEdge[0].Prob)
	}
}
