package core_test

import (
	"context"

	"math"
	"sort"
	"testing"

	"dsks/internal/core"
	"dsks/internal/harness"
	"dsks/internal/index"
	"dsks/internal/obj"
)

// bruteRanked computes the exact top-k ranked results by full enumeration
// with exact in-memory distances.
func bruteRanked(sys *harness.System, q core.RankedQuery) []core.RankedResult {
	g := sys.DS.Graph
	col := sys.DS.Objects
	var all []core.RankedResult
	for i := 0; i < col.Len(); i++ {
		o := col.Get(obj.ID(i))
		matched := 0
		for _, t := range q.Terms {
			if o.HasTerm(t) {
				matched++
			}
		}
		if matched == 0 {
			continue
		}
		d := g.NetworkDist(q.Pos, o.Pos)
		if d > q.DeltaMax {
			continue
		}
		spatial := 1 - d/q.DeltaMax
		score := q.Alpha*spatial + (1-q.Alpha)*float64(matched)/float64(len(q.Terms))
		all = append(all, core.RankedResult{
			Ref:     index.ObjectRef{ID: o.ID, Edge: o.Pos.Edge, Offset: o.Pos.Offset},
			Dist:    d,
			Matched: matched,
			Score:   score,
		})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Score != all[j].Score {
			return all[i].Score > all[j].Score
		}
		if all[i].Dist != all[j].Dist {
			return all[i].Dist < all[j].Dist
		}
		return all[i].Ref.ID < all[j].Ref.ID
	})
	if len(all) > q.K {
		all = all[:q.K]
	}
	return all
}

func TestSearchRankedMatchesBruteForce(t *testing.T) {
	sys, ws := testWorld(t, 63)
	loader, err := sys.Loader(harness.KindSIF)
	if err != nil {
		t.Fatal(err)
	}
	ul, ok := loader.(index.UnionLoader)
	if !ok {
		t.Fatal("SIF is not a UnionLoader")
	}
	nonEmpty := 0
	for _, wq := range ws {
		for _, alpha := range []float64{0.3, 0.7, 1.0} {
			q := core.RankedQuery{
				Pos: wq.Pos, Terms: wq.Terms, K: 5, Alpha: alpha, DeltaMax: wq.DeltaMax,
			}
			res, err := core.Run(context.Background(), sys.Net, ul, q)
			if err != nil {
				t.Fatal(err)
			}
			got := res.Ranked
			want := bruteRanked(sys, q)
			if len(got) != len(want) {
				t.Fatalf("alpha=%v: got %d results, want %d", alpha, len(got), len(want))
			}
			// Scores must match as multisets (ties may reorder members).
			gs := scoresOf(got)
			bs := scoresOf(want)
			for i := range gs {
				if math.Abs(gs[i]-bs[i]) > 1e-9 {
					t.Fatalf("alpha=%v rank %d: score %v, want %v\ngot %+v\nwant %+v",
						alpha, i, gs[i], bs[i], got, want)
				}
			}
			if len(want) > 0 {
				nonEmpty++
			}
		}
	}
	if nonEmpty == 0 {
		t.Fatal("workload produced no ranked results; test is vacuous")
	}
}

func scoresOf(rs []core.RankedResult) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.Score
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(out)))
	return out
}

func TestSearchRankedPureSpatial(t *testing.T) {
	// Alpha = 1: the ranked query degenerates to "nearest objects with any
	// query keyword".
	sys, ws := testWorld(t, 65)
	loader, err := sys.Loader(harness.KindSIF)
	if err != nil {
		t.Fatal(err)
	}
	ul := loader.(index.UnionLoader)
	wq := ws[0]
	res, err := core.Run(context.Background(), sys.Net, ul, core.RankedQuery{
		Pos: wq.Pos, Terms: wq.Terms, K: 10, Alpha: 1, DeltaMax: wq.DeltaMax,
	})
	if err != nil {
		t.Fatal(err)
	}
	got := res.Ranked
	for i := 1; i < len(got); i++ {
		if got[i].Dist < got[i-1].Dist-1e-9 {
			t.Fatalf("alpha=1 results not distance-ordered: %v after %v",
				got[i].Dist, got[i-1].Dist)
		}
	}
}

func TestSearchRankedEarlyTermination(t *testing.T) {
	// With a heavily spatial score, the expansion should terminate early
	// on at least some queries once k matches are close by.
	sys, ws := testWorld(t, 67)
	loader, _ := sys.Loader(harness.KindSIF)
	ul := loader.(index.UnionLoader)
	sawEarly := false
	for _, wq := range ws {
		res, err := core.Run(context.Background(), sys.Net, ul, core.RankedQuery{
			Pos: wq.Pos, Terms: wq.Terms, K: 2, Alpha: 0.9, DeltaMax: wq.DeltaMax,
		})
		if err != nil {
			t.Fatal(err)
		}
		stats := res.Stats
		if stats.EarlyTerminate {
			sawEarly = true
		}
	}
	if !sawEarly {
		t.Log("warning: ranked search never terminated early on this workload")
	}
}

func TestSearchRankedValidation(t *testing.T) {
	sys, _ := testWorld(t, 69)
	loader, _ := sys.Loader(harness.KindSIF)
	ul := loader.(index.UnionLoader)
	bad := []core.RankedQuery{
		{K: 1, Alpha: 0.5, DeltaMax: 10},                         // no terms
		{Terms: []obj.TermID{1}, K: 0, Alpha: 0.5, DeltaMax: 10}, // k = 0
		{Terms: []obj.TermID{1}, K: 1, Alpha: 1.5, DeltaMax: 10}, // alpha > 1
		{Terms: []obj.TermID{1}, K: 1, Alpha: 0.5, DeltaMax: 0},  // no range
	}
	for i, q := range bad {
		if _, err := core.Run(context.Background(), sys.Net, ul, q); err == nil {
			t.Errorf("bad query %d accepted", i)
		}
	}
}
