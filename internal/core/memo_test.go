package core_test

import (
	"context"
	"math"
	"slices"
	"testing"

	"dsks/internal/alt"
	"dsks/internal/ccam"
	"dsks/internal/core"
	"dsks/internal/graph"
	"dsks/internal/harness"
	"dsks/internal/obj"
	"dsks/internal/storage"
)

// countingNet counts the Adjacency calls a search makes, per node.
type countingNet struct {
	ccam.InMemory
	calls map[graph.NodeID]int
}

func (n countingNet) Adjacency(ctx context.Context, id graph.NodeID) ([]ccam.AdjEntry, error) {
	n.calls[id]++
	return n.InMemory.Adjacency(ctx, id)
}

// TestAdjacencyMemoFetchesEachNodeOnce pins what the query-scoped memo may
// and may not change. The answers were recorded before the memo existed,
// from runs whose objective was checked against graph.NetworkDist; the
// work counters were re-recorded when COM began to skip pairs whose bound
// is below θ_T, and the nodes popped of queries 9 and 13 when Algorithm
// 6's unvisited-object bounds took the path through the query: both stop
// their expansion sooner, at the same answer. The engine's Adjacency
// calls are one per distinct node it settles (engineNodes), not one per
// settle (settled, below). The expansion settles each node once, memo or
// not.
func TestAdjacencyMemoFetchesEachNodeOnce(t *testing.T) {
	sys, ws := denseWorld(t)
	g := sys.DS.Graph
	loader, err := sys.Loader(harness.KindSIF)
	if err != nil {
		t.Fatal(err)
	}
	pool := storage.NewBufferPool(storage.NewPageFile(), 256, nil)
	oracle, err := alt.Build(g, pool, alt.Config{Landmarks: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		query                                      int
		popped, engineNodes, settled, pairs, saved int64
		ids                                        []obj.ID
	}{
		{0, 24, 20, 161, 30, 51, []obj.ID{1092, 5095, 2347, 116, 2978, 3897}},
		{3, 22, 15, 921, 214, 458, []obj.ID{1461, 895, 4482, 1781, 2401, 5423}},
		{9, 2, 1, 42, 42, 42, []obj.ID{2944, 592, 4117, 3881, 3698, 2056}},
		{13, 1, 2, 25, 25, 25, []obj.ID{2589, 1792, 1414, 3446, 164, 630}},
	} {
		q := harness.DivQueryOf(ws[tc.query], 6, 0.8)
		net := countingNet{ccam.InMemory{G: g}, make(map[graph.NodeID]int)}
		res, err := core.Run(context.Background(), core.WithOracle(net, oracle, core.OracleCounters{}), loader, q)
		if err != nil {
			t.Fatal(err)
		}
		st := res.Stats
		if st.NodesPopped != tc.popped || st.DistSettled != tc.settled || st.PairDistCalcs != tc.pairs || st.OraclePopsSaved != tc.saved {
			t.Errorf("query %d: popped %d, settled %d, pair distances %d, pops saved %d; recorded %d, %d, %d, %d",
				tc.query, st.NodesPopped, st.DistSettled, st.PairDistCalcs, st.OraclePopsSaved, tc.popped, tc.settled, tc.pairs, tc.saved)
		}
		if ids := candidateIDs(res.Candidates); !slices.Equal(ids, tc.ids) {
			t.Errorf("query %d: result %v, recorded %v", tc.query, ids, tc.ids)
		}
		p := core.DivParams{K: q.K, Lambda: q.Lambda, DeltaMax: q.DeltaMax}
		want := core.SetObjective(len(res.Candidates), func(i, j int) float64 {
			a, b := res.Candidates[i].Ref.Pos(), res.Candidates[j].Ref.Pos()
			return p.ThetaFromDists(g.NetworkDist(q.Pos, a), g.NetworkDist(q.Pos, b), g.NetworkDist(a, b))
		})
		if math.Abs(res.F-want) > 1e-9 {
			t.Errorf("query %d: objective %v, reference %v", tc.query, res.F, want)
		}
		total := int64(0)
		for n, c := range net.calls {
			total += int64(c)
			if c > 2 { // once for the expansion's frontier, once for the engine's
				t.Errorf("query %d: node %d fetched %d times", tc.query, n, c)
			}
		}
		if total != tc.popped+tc.engineNodes {
			t.Errorf("query %d: %d Adjacency calls, want %d by the expansion + %d by the engine",
				tc.query, total, tc.popped, tc.engineNodes)
		}
	}
}
