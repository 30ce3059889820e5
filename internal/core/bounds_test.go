package core_test

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"dsks/internal/core"
	"dsks/internal/dataset"
	"dsks/internal/harness"
)

// boundDraw draws the DivParams the two bound quick-checks share: λ is
// uniform on a third of the draws, exactly ½ (where θ's diversity and
// relevance trade evenly) on a third and 0.8 on the rest.
func boundDraw(rng *rand.Rand) core.DivParams {
	return core.DivParams{
		K:        2 + rng.Intn(10),
		Lambda:   []float64{rng.Float64(), 0.5, 0.8}[rng.Intn(3)],
		DeltaMax: 100 + rng.Float64()*1000,
	}
}

// pathSum draws a pairwise distance for two objects at distances dU and
// dV from the query, up to the path through it: on a third of the draws
// that path exactly, on a sixth one ulp above it, the rounding PairBound's
// slack is for.
func pathSum(rng *rand.Rand, dU, dV float64) float64 {
	switch rng.Intn(6) {
	case 0, 1:
		return dU + dV
	case 2:
		return math.Nextafter(dU+dV, math.Inf(1))
	}
	return rng.Float64() * (dU + dV)
}

// TestUnvisitedPairBoundSound verifies the soundness of Algorithm 6's
// global pruning bound: for any two objects at distance >= gamma from the
// query (both within DeltaMax), their true θ never exceeds
// UnvisitedPairBound(gamma). A quarter of the pairs sit at the point where
// the bound's diversity saturates, dU = dV = DeltaMax/(1+1e-9). The bound
// is also at most the paper's, which gives the pair diversity 1.
func TestUnvisitedPairBoundSound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := boundDraw(rng)
		gamma := rng.Float64() * p.DeltaMax
		// Two hypothetical unvisited objects: distances in [gamma, DeltaMax].
		dU := gamma + rng.Float64()*(p.DeltaMax-gamma)
		dV := gamma + rng.Float64()*(p.DeltaMax-gamma)
		if rng.Intn(4) == 0 {
			dU = max(gamma, p.DeltaMax/(1+1e-9))
			dV = dU
		}
		bound := p.UnvisitedPairBound(gamma)
		paper := p.Theta(p.Rel(gamma), p.Rel(gamma), 1)
		return p.ThetaFromDists(dU, dV, pathSum(rng, dU, dV)) <= bound+1e-12 && bound <= paper
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestVisitedUnvisitedBoundSound verifies the per-object pruning bound:
// for a visited object at distance dVisited and any unvisited object at
// dU >= gamma, whose pairwise distance is at most dVisited + dU (the path
// through the query), the true θ never exceeds
// VisitedUnvisitedBound(dVisited, gamma). A quarter of the pairs sit where
// the bound's diversity saturates, dVisited + dU = 2·DeltaMax/(1+1e-9).
// The bound is also at most the paper's, which takes the pairwise distance
// to be dVisited + DeltaMax; that one is given PairBound's 1e-9 slack, or
// at λ = 0 the two would differ by it alone.
func TestVisitedUnvisitedBoundSound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := boundDraw(rng)
		gamma := rng.Float64() * p.DeltaMax
		dVisited := rng.Float64() * p.DeltaMax
		dU := gamma + rng.Float64()*(p.DeltaMax-gamma) // unvisited object
		if rng.Intn(4) == 0 {
			dVisited = p.DeltaMax * (1 - 1e-9*rng.Float64())
			dU = min(max(2*p.DeltaMax/(1+1e-9)-dVisited, gamma), p.DeltaMax)
		}
		bound := p.VisitedUnvisitedBound(dVisited, gamma)
		paper := p.Theta(p.Rel(dVisited), p.Rel(gamma), p.Div((dVisited+p.DeltaMax)*(1+1e-9)))
		return p.ThetaFromDists(dVisited, dU, pathSum(rng, dVisited, dU)) <= bound+1e-12 && bound <= paper
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestPairBoundSound verifies the bound COM skips pairs by: for two
// arrived objects at distances dU and dV from the query, θ never exceeds
// PairBound(dU, dV), at every λ. The pairwise distance ranges up to the
// path through the query, dU + dV, which a third of the draws hit exactly
// (the plateau of ROADMAP item 12) and a sixth exceed by one ulp, the
// rounding the bound's slack is for.
func TestPairBoundSound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := core.DivParams{
			K:        2 + rng.Intn(10),
			Lambda:   []float64{0, 0.25, 0.5, 0.75, 1}[rng.Intn(5)],
			DeltaMax: 100 + rng.Float64()*1000,
		}
		dU := rng.Float64() * p.DeltaMax
		dV := rng.Float64() * p.DeltaMax
		dUV := rng.Float64() * (dU + dV)
		switch rng.Intn(6) {
		case 0, 1:
			dUV = dU + dV
		case 2:
			dUV = math.Nextafter(dU+dV, math.Inf(1))
		}
		return p.ThetaFromDists(dU, dV, dUV) <= p.PairBound(dU, dV)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
	// Replayed on real expansions, with the pair distances COM's engine
	// computes (from the lower object ID).
	sys, ws := denseWorld(t)
	plateau, checked := 0, 0
	for _, wq := range ws[:6] {
		q := harness.SKQueryOf(wq)
		res, err := sys.RunSK(context.Background(), harness.KindSIF, q)
		if err != nil {
			t.Fatal(err)
		}
		eng := core.NewDistEngine(context.Background(), sys.Net, 2*q.DeltaMax, nil)
		cands := res.Candidates[:min(len(res.Candidates), 40)]
		for i := range cands {
			for j := i + 1; j < len(cands); j++ {
				a, b := cands[i], cands[j]
				if a.Ref.ID > b.Ref.ID {
					a, b = b, a
				}
				d, err := eng.Dist(a.Ref.Pos(), b.Ref.Pos())
				if err != nil {
					t.Fatal(err)
				}
				if d >= a.Dist+b.Dist {
					plateau++
				}
				for _, lambda := range []float64{0, 0.25, 0.5, 0.75, 1} {
					p := core.DivParams{K: 6, Lambda: lambda, DeltaMax: q.DeltaMax}
					if theta, ub := p.ThetaFromDists(a.Dist, b.Dist, d), p.PairBound(a.Dist, b.Dist); theta > ub {
						t.Fatalf("pair bound violated at λ=%v: θ(%d,%d)=%v > %v (δ=%v, through the query %v)",
							lambda, a.Ref.ID, b.Ref.ID, theta, ub, d, a.Dist+b.Dist)
					}
					checked++
				}
			}
		}
	}
	t.Logf("%d checks, %d plateau pairs", checked, plateau)
	if plateau == 0 || checked == 0 {
		t.Fatalf("vacuous replay: %d checks, %d pairs whose shortest path runs through the query", checked, plateau)
	}
}

// TestBoundsOnRealExpansion checks the bounds against actual objects from
// real expansions, on both test worlds and at every λ the digest grid
// runs: every pair of candidates arriving after the frontier gamma, and
// every arrived candidate against each of them, must satisfy the bounds.
func TestBoundsOnRealExpansion(t *testing.T) {
	dense, denseWs := denseWorld(t)
	small, smallWs := testWorld(t, 55)
	checked := 0
	for _, w := range []struct {
		sys *harness.System
		ws  []dataset.Query
	}{{dense, denseWs}, {small, smallWs}} {
		g := w.sys.DS.Graph
		for _, wq := range w.ws[:6] {
			q := harness.SKQueryOf(wq)
			res, err := w.sys.RunSK(context.Background(), harness.KindSIF, q)
			if err != nil {
				t.Fatal(err)
			}
			cands := res.Candidates
			dist := make([][]float64, len(cands))
			for a := range cands {
				dist[a] = make([]float64, len(cands))
				for b := range cands {
					dist[a][b] = g.NetworkDist(cands[a].Ref.Pos(), cands[b].Ref.Pos())
				}
			}
			for _, lambda := range []float64{0, 0.25, 0.5, 0.75, 0.8, 1} {
				params := core.DivParams{K: 6, Lambda: lambda, DeltaMax: q.DeltaMax}
				theta := func(a, b int) float64 {
					return params.ThetaFromDists(cands[a].Dist, cands[b].Dist, dist[a][b])
				}
				for i := range cands {
					gamma := cands[i].Dist
					// All candidates from i onward are "unvisited" at frontier gamma.
					bound := params.UnvisitedPairBound(gamma)
					for a := i; a < len(cands); a++ {
						for b := a + 1; b < len(cands); b++ {
							if th := theta(a, b); th > bound+1e-9 {
								t.Fatalf("λ=%v: unvisited pair bound violated: θ=%v > bound=%v (γ=%v)", lambda, th, bound, gamma)
							}
							checked++
						}
					}
					// Visited (arrived before i) against unvisited (from i on).
					for v := 0; v < i; v++ {
						bound := params.VisitedUnvisitedBound(cands[v].Dist, gamma)
						for u := i; u < len(cands); u++ {
							if th := theta(v, u); th > bound+1e-9 {
								t.Fatalf("λ=%v: visited/unvisited bound violated: θ=%v > bound=%v (γ=%v)", lambda, th, bound, gamma)
							}
							checked++
						}
					}
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no candidate pairs to check; test is vacuous")
	}
}

// TestTravelTimeCostModel runs the full pipeline on a network whose edge
// weights are travel times rather than distances — the "general cost
// model" the paper's INE choice is motivated by.
func TestTravelTimeCostModel(t *testing.T) {
	g, err := dataset.GenerateNetwork(dataset.NetworkConfig{
		Nodes: 400, EdgeFactor: 1.4, Jitter: 0.3, TravelTimeCost: true, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	col, err := dataset.GenerateObjects(g, dataset.ObjectConfig{
		NumObjects: 3000, VocabSize: 300, KeywordsPerObject: 6, Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	ds := &dataset.Dataset{Name: "tt", Graph: g, Objects: col, VocabSize: 300}
	sys, err := harness.Build(ds, []harness.IndexKind{harness.KindSIF}, harness.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ws, err := dataset.GenerateWorkload(col, 300, dataset.WorkloadConfig{
		NumQueries: 10, Keywords: 2, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	nonEmpty := 0
	for _, wq := range ws {
		q := harness.SKQueryOf(wq)
		res, err := sys.RunSK(context.Background(), harness.KindSIF, q)
		if err != nil {
			t.Fatal(err)
		}
		// Validate against exact in-memory distances (in cost units).
		for _, c := range res.Candidates {
			want := g.NetworkDist(q.Pos, c.Ref.Pos())
			if diff := c.Dist - want; diff > 1e-6 || diff < -1e-6 {
				t.Fatalf("travel-time dist %v, want %v", c.Dist, want)
			}
		}
		if len(res.Candidates) > 0 {
			nonEmpty++
		}
		// Diversified search must also run under the cost model.
		if _, err := sys.RunDiv(context.Background(), harness.KindSIF, harness.AlgoCOM,
			harness.DivQueryOf(wq, 4, 0.8)); err != nil {
			t.Fatal(err)
		}
	}
	if nonEmpty == 0 {
		t.Fatal("travel-time workload produced no results; test is vacuous")
	}
}

// TestKNNInternal runs the kNN family through core.Run on the test world.
func TestKNNInternal(t *testing.T) {
	sys, ws := testWorld(t, 59)
	loader, err := sys.Loader(harness.KindSIF)
	if err != nil {
		t.Fatal(err)
	}
	for _, wq := range ws[:5] {
		res, err := core.Run(context.Background(), sys.Net, loader, core.KNNQuery{
			Pos: wq.Pos, Terms: wq.Terms, K: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		cands, stats := res.Candidates, res.Stats
		if len(cands) > 5 {
			t.Fatalf("kNN returned %d > k", len(cands))
		}
		if stats.EdgesVisited == 0 {
			t.Error("no edges visited")
		}
	}
}
