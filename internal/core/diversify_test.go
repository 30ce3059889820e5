package core_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"dsks/internal/core"
	"dsks/internal/dataset"
	"dsks/internal/experiments/baselines"
	"dsks/internal/harness"
	"dsks/internal/index"
	"dsks/internal/obj"
)

func TestDivParamsRanges(t *testing.T) {
	p := core.DivParams{K: 10, Lambda: 0.8, DeltaMax: 1000}
	if got := p.Rel(0); got != 1 {
		t.Errorf("Rel(0) = %v", got)
	}
	if got := p.Rel(1000); got != 0 {
		t.Errorf("Rel(DeltaMax) = %v", got)
	}
	if got := p.Rel(2000); got != 0 {
		t.Errorf("Rel beyond range = %v (must clamp)", got)
	}
	if got := p.Div(2000); got != 1 {
		t.Errorf("Div(2·DeltaMax) = %v", got)
	}
	if got := p.Div(5000); got != 1 {
		t.Errorf("Div clamps at 1, got %v", got)
	}
	// θ is monotone in both relevance and diversity.
	if p.Theta(1, 1, 1) <= p.Theta(0.5, 0.5, 0.5) {
		t.Error("Theta not monotone")
	}
	// λ = 1 ignores diversity.
	p1 := core.DivParams{K: 10, Lambda: 1, DeltaMax: 1000}
	if p1.Theta(0.5, 0.5, 0) != p1.Theta(0.5, 0.5, 1) {
		t.Error("lambda=1 should ignore diversity")
	}
	// λ = 0 ignores relevance.
	p0 := core.DivParams{K: 10, Lambda: 0, DeltaMax: 1000}
	if p0.Theta(0, 0, 0.5) != p0.Theta(1, 1, 0.5) {
		t.Error("lambda=0 should ignore relevance")
	}
}

func TestObjectiveDecomposition(t *testing.T) {
	// f(S) as Σ pairwise θ must equal the direct definition
	// λ·Σ rel + (1-λ)/(k-1)·Σ_{u≠v} div for random inputs.
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		k := 2 + rng.Intn(8)
		p := core.DivParams{K: k, Lambda: rng.Float64(), DeltaMax: 1000}
		dists := make([]float64, k)
		for i := range dists {
			dists[i] = rng.Float64() * 1000
		}
		pair := make([][]float64, k)
		for i := range pair {
			pair[i] = make([]float64, k)
		}
		for i := 0; i < k; i++ {
			for j := i + 1; j < k; j++ {
				d := rng.Float64() * 2000
				pair[i][j], pair[j][i] = d, d
			}
		}
		viaTheta := core.SetObjective(k, func(i, j int) float64 {
			return p.ThetaFromDists(dists[i], dists[j], pair[i][j])
		})
		direct := 0.0
		for i := 0; i < k; i++ {
			direct += p.Lambda * p.Rel(dists[i])
		}
		for i := 0; i < k; i++ {
			for j := 0; j < k; j++ {
				if i != j {
					direct += (1 - p.Lambda) / float64(k-1) * p.Div(pair[i][j])
				}
			}
		}
		if math.Abs(viaTheta-direct) > 1e-9 {
			t.Fatalf("decomposition broken: pairwise %v vs direct %v", viaTheta, direct)
		}
	}
}

func TestGreedyDiversifyBasics(t *testing.T) {
	theta := func(i, j int) float64 { return float64((i + 1) * (j + 1)) }
	got := core.GreedyDiversify(5, 4, theta)
	if len(got) != 4 {
		t.Fatalf("chose %d objects", len(got))
	}
	// First pair must be the max-θ pair (3,4); second-best disjoint pair
	// is (1,2).
	if !(got[0] == 3 && got[1] == 4) {
		t.Errorf("first pair = %d,%d, want 3,4", got[0], got[1])
	}
	if !(got[2] == 1 && got[3] == 2) {
		t.Errorf("second pair = %d,%d, want 1,2", got[2], got[3])
	}
	// k >= n returns everything.
	if got := core.GreedyDiversify(3, 10, theta); len(got) != 3 {
		t.Errorf("k>=n returned %v", got)
	}
	// k = 0 and negative.
	if got := core.GreedyDiversify(5, 0, theta); got != nil {
		t.Errorf("k=0 returned %v", got)
	}
	// Odd k adds one extra object.
	if got := core.GreedyDiversify(5, 3, theta); len(got) != 3 {
		t.Errorf("odd k returned %v", got)
	}
}

func TestGreedyTwoApproximation(t *testing.T) {
	// The greedy is 2-approximate for max-sum dispersion; verify against
	// exhaustive search on small instances.
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 30; trial++ {
		n, k := 8, 4
		theta := make([][]float64, n)
		for i := range theta {
			theta[i] = make([]float64, n)
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				v := rng.Float64()
				theta[i][j], theta[j][i] = v, v
			}
		}
		tf := func(i, j int) float64 { return theta[i][j] }
		chosen := core.GreedyDiversify(n, k, tf)
		fGreedy := core.SetObjective(len(chosen), func(a, b int) float64 {
			return tf(chosen[a], chosen[b])
		})
		// Exhaustive optimum over all C(8,4) subsets.
		best := 0.0
		var idx [4]int
		for idx[0] = 0; idx[0] < n; idx[0]++ {
			for idx[1] = idx[0] + 1; idx[1] < n; idx[1]++ {
				for idx[2] = idx[1] + 1; idx[2] < n; idx[2]++ {
					for idx[3] = idx[2] + 1; idx[3] < n; idx[3]++ {
						f := 0.0
						for a := 0; a < 4; a++ {
							for b := a + 1; b < 4; b++ {
								f += theta[idx[a]][idx[b]]
							}
						}
						if f > best {
							best = f
						}
					}
				}
			}
		}
		if fGreedy < best/2-1e-9 {
			t.Fatalf("greedy %v below half of optimum %v", fGreedy, best)
		}
	}
}

// randomThetaWorld builds a random symmetric θ matrix over ids 0..n-1.
func randomThetaWorld(rng *rand.Rand, n int) func(a, b obj.ID) float64 {
	m := make(map[[2]obj.ID]float64)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			m[[2]obj.ID{obj.ID(i), obj.ID(j)}] = rng.Float64()
		}
	}
	return func(a, b obj.ID) float64 {
		if a > b {
			a, b = b, a
		}
		return m[[2]obj.ID{a, b}]
	}
}

// TestCorePairsMatchGreedy is the paper's Algorithm 5 invariant: after each
// arrival, the incrementally maintained core pairs must equal the greedy
// Algorithm 1 run from scratch on all objects seen so far.
func TestCorePairsMatchGreedy(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		n := 10 + rng.Intn(20)
		k := 2 * (1 + rng.Intn(4)) // even k in 2..8
		theta := randomThetaWorld(rng, n)
		testCorePairsMatchGreedy(t, trial, n, k, theta, func(*core.CorePairSet) func(a, b obj.ID) float64 { return theta })
	}
}

// TestCorePairsMatchGreedyWithBound hands Algorithm 5 the θ COM does: a
// pair whose PairBound is below θ_T gets the bound, every other pair its
// exact θ. The core pairs must still equal the greedy run from scratch on
// the exact θ. Objects arrive in non-decreasing distance from the query,
// a third of the pairs on the path through it.
func TestCorePairsMatchGreedyWithBound(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	bounded := 0
	for trial := 0; trial < 200; trial++ {
		n := 10 + rng.Intn(30)
		k := 2 * (1 + rng.Intn(4)) // even k in 2..8
		p := core.DivParams{K: k, Lambda: []float64{0, 0.25, 0.75, 0.8, 1}[trial%5], DeltaMax: 1000}
		dist := make([]float64, n)
		for i := range dist {
			dist[i] = rng.Float64() * p.DeltaMax
		}
		sort.Float64s(dist)
		exact := make(map[[2]obj.ID]float64)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				s := dist[i] + dist[j]
				d := s
				if rng.Intn(3) > 0 {
					d = dist[j] - dist[i] + rng.Float64()*2*dist[i] // the triangle inequality's range
				}
				exact[[2]obj.ID{obj.ID(i), obj.ID(j)}] = p.ThetaFromDists(dist[i], dist[j], d)
			}
		}
		theta := func(a, b obj.ID) float64 { return exact[[2]obj.ID{min(a, b), max(a, b)}] }
		testCorePairsMatchGreedy(t, trial, n, k, theta, func(cp *core.CorePairSet) func(a, b obj.ID) float64 {
			return func(a, b obj.ID) float64 {
				if ub := p.PairBound(dist[a], dist[b]); ub < cp.ThetaT() {
					bounded++
					return ub
				}
				return theta(a, b)
			}
		})
	}
	t.Logf("%d pairs bounded below θ_T", bounded)
	if bounded == 0 {
		t.Fatal("no pair was ever bounded below θ_T; the test is vacuous")
	}
}

// testCorePairsMatchGreedy feeds objects 0..n-1 to a k/2-pair set, Update
// seeing the θ that update makes for the set, and compares the core pairs
// with GreedyDiversify over theta after every arrival.
func testCorePairsMatchGreedy(t *testing.T, trial, n, k int, theta func(a, b obj.ID) float64,
	update func(*core.CorePairSet) func(a, b obj.ID) float64) {
	t.Helper()
	cp := core.NewCorePairSet(k / 2)
	updateTheta := update(cp)
	ids := make([]obj.ID, 0, n)
	for i := 0; i < n; i++ {
		ids = append(ids, obj.ID(i))
		if len(ids) < k {
			continue
		}
		if len(ids) == k {
			cp.InitGreedy(ids, theta)
		} else {
			iters := cp.Update(obj.ID(i), ids, updateTheta)
			if iters > k/2+1 {
				t.Fatalf("update looped %d times for k=%d", iters, k)
			}
		}
		// Reference: greedy from scratch over ids.
		chosen := core.GreedyDiversify(len(ids), k, func(a, b int) float64 {
			return theta(ids[a], ids[b])
		})
		wantPairs := make([][2]obj.ID, 0, k/2)
		for j := 0; j+1 < len(chosen); j += 2 {
			a, b := ids[chosen[j]], ids[chosen[j+1]]
			if a > b {
				a, b = b, a
			}
			wantPairs = append(wantPairs, [2]obj.ID{a, b})
		}
		gotPairs := make([][2]obj.ID, 0, k/2)
		for _, p := range cp.Pairs() {
			a, b := p.A, p.B
			if a > b {
				a, b = b, a
			}
			gotPairs = append(gotPairs, [2]obj.ID{a, b})
			if p.Theta != theta(a, b) {
				t.Fatalf("trial %d: core pair (%d,%d) carries θ %v, exact %v", trial, a, b, p.Theta, theta(a, b))
			}
		}
		sortPairs(wantPairs)
		sortPairs(gotPairs)
		if len(gotPairs) != len(wantPairs) {
			t.Fatalf("trial %d after %d arrivals: %d pairs vs %d",
				trial, len(ids), len(gotPairs), len(wantPairs))
		}
		for x := range gotPairs {
			if gotPairs[x] != wantPairs[x] {
				t.Fatalf("trial %d after %d arrivals (k=%d): pairs %v, want %v",
					trial, len(ids), k, gotPairs, wantPairs)
			}
		}
	}
}

func sortPairs(ps [][2]obj.ID) {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i][0] != ps[j][0] {
			return ps[i][0] < ps[j][0]
		}
		return ps[i][1] < ps[j][1]
	})
}

// TestThetaTMonotone checks Theorem 1: θ_T never decreases as objects
// arrive.
func TestThetaTMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 20; trial++ {
		n, k := 40, 6
		theta := randomThetaWorld(rng, n)
		cp := core.NewCorePairSet(k / 2)
		var ids []obj.ID
		prev := -1.0
		for i := 0; i < n; i++ {
			ids = append(ids, obj.ID(i))
			if len(ids) < k {
				continue
			}
			if len(ids) == k {
				cp.InitGreedy(ids, theta)
			} else {
				cp.Update(obj.ID(i), ids, theta)
			}
			if tt := cp.ThetaT(); tt < prev-1e-12 {
				t.Fatalf("thetaT decreased: %v -> %v", prev, tt)
			} else {
				prev = tt
			}
		}
	}
}

// denseWorld is a denser network at a wider radius than testWorld, where
// COM's object pruning regularly leaves no visited object outside the
// core pairs.
func denseWorld(t testing.TB) (*harness.System, []dataset.Query) {
	t.Helper()
	ds, err := dataset.GeneratePreset(dataset.PresetNA, 400, 21)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := harness.Build(ds, []harness.IndexKind{harness.KindSIF}, harness.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ws, err := dataset.GenerateWorkload(ds.Objects, ds.VocabSize, dataset.WorkloadConfig{
		NumQueries: 20, Keywords: 2, DeltaMaxPerKeyword: 2000, Seed: 28,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sys, ws
}

// TestSEQAndCOMAgree runs both algorithms at every λ but ½, where θ has
// a plateau that floating point splits by ulps and the two algorithms may
// break its ties differently (ROADMAP item 12).
func TestSEQAndCOMAgree(t *testing.T) {
	sys, ws := testWorld(t, 21)
	dense, denseWs := denseWorld(t)
	for _, tc := range []struct {
		name string
		sys  *harness.System
		ws   []dataset.Query
		k    int
	}{
		{"even k", sys, ws, 6},
		{"odd k", sys, ws, 5},
		{"even k, pruned", dense, denseWs, 6},
		{"odd k, pruned", dense, denseWs, 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, lambda := range []float64{0, 0.25, 0.75, 0.8, 1} {
				t.Run(fmt.Sprintf("λ=%v", lambda), func(t *testing.T) {
					testSEQAndCOMAgree(t, tc.sys, tc.ws, tc.k, lambda)
				})
			}
		})
	}
}

func testSEQAndCOMAgree(t *testing.T, sys *harness.System, ws []dataset.Query, k int, lambda float64) {
	ran := 0
	for _, wq := range ws {
		q := harness.DivQueryOf(wq, k, lambda)
		seq, err := sys.RunDiv(context.Background(), harness.KindSIF, harness.AlgoSEQ, q)
		if err != nil {
			t.Fatal(err)
		}
		com, err := sys.RunDiv(context.Background(), harness.KindSIF, harness.AlgoCOM, q)
		if err != nil {
			t.Fatal(err)
		}
		if len(seq.Candidates) != len(com.Candidates) {
			t.Fatalf("SEQ chose %d, COM chose %d", len(seq.Candidates), len(com.Candidates))
		}
		if len(seq.Candidates) == 0 {
			continue
		}
		ran++
		// Both run the same greedy; with continuous distances the chosen
		// sets must match.
		a := candidateIDs(seq.Candidates)
		b := candidateIDs(com.Candidates)
		sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
		sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("result sets differ: SEQ %v vs COM %v (f: %v vs %v)",
					a, b, seq.F, com.F)
			}
		}
		if math.Abs(seq.F-com.F) > 1e-9 {
			t.Fatalf("objective differs: %v vs %v", seq.F, com.F)
		}
	}
	if ran == 0 {
		t.Fatal("no query produced results; test is vacuous")
	}
}

func TestCOMPrunesOrTerminates(t *testing.T) {
	// With high lambda (relevance-heavy), COM must terminate the expansion
	// early on at least some queries.
	sys, ws := testWorld(t, 33)
	sawEarly := false
	for _, wq := range ws {
		q := harness.DivQueryOf(wq, 4, 0.9)
		com, err := sys.RunDiv(context.Background(), harness.KindSIF, harness.AlgoCOM, q)
		if err != nil {
			t.Fatal(err)
		}
		if com.Stats.EarlyTerminate {
			sawEarly = true
		}
	}
	if !sawEarly {
		t.Log("warning: COM never terminated early on this workload (may be small candidate sets)")
	}
}

func TestCOMFewerThanK(t *testing.T) {
	// A query matching very few objects returns all of them.
	sys, _ := testWorld(t, 17)
	col := sys.DS.Objects
	// Find an object with a rare term combination.
	o := col.Get(0)
	q := core.DivQuery{
		SKQuery: core.SKQuery{Pos: o.Pos, Terms: o.Terms, DeltaMax: 100},
		K:       10, Lambda: 0.8,
	}
	com, err := sys.RunDiv(context.Background(), harness.KindSIF, harness.AlgoCOM, q)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := sys.RunDiv(context.Background(), harness.KindSIF, harness.AlgoSEQ, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(com.Candidates) != len(seq.Candidates) {
		t.Fatalf("few-object case: COM %d vs SEQ %d", len(com.Candidates), len(seq.Candidates))
	}
	if len(com.Candidates) == 0 {
		t.Fatal("co-located object not found")
	}
}

func TestDivQueryValidation(t *testing.T) {
	q := core.DivQuery{
		SKQuery: core.SKQuery{Terms: []obj.TermID{1}, DeltaMax: 10},
		K:       0, Lambda: 0.5,
	}
	if err := q.Validate(); err == nil {
		t.Error("k=0 accepted")
	}
	q.K = 5
	q.Lambda = 1.5
	if err := q.Validate(); err == nil {
		t.Error("lambda>1 accepted")
	}
	q.Lambda = 0.5
	if err := q.Validate(); err != nil {
		t.Errorf("valid query rejected: %v", err)
	}
}

// sliceArrivals is an ArrivalSource over a materialized arrival list:
// the arrivals of a drained expansion, with the terms each contains (OR
// expansions), honoring Limit as the expansion does.
type sliceArrivals struct {
	cands   []core.Candidate
	terms   []index.TermSet
	limit   float64
	next    int
	stopped int
}

func (s *sliceArrivals) Next() (core.Candidate, bool, error) {
	if s.stopped > 0 || s.next == len(s.cands) || s.cands[s.next].Dist > s.limit {
		return core.Candidate{}, false, nil
	}
	s.next++
	return s.cands[s.next-1], true, nil
}

func (s *sliceArrivals) Terms() index.TermSet { return s.terms[s.next-1] }
func (s *sliceArrivals) Limit(d float64)      { s.limit = min(s.limit, d) }
func (s *sliceArrivals) Stop()                { s.stopped++ }

// TestDiversifyArrivalsSourceIndependence: every query family depends on
// its arrivals, not on where they come from. Fed its expansion's drained
// arrivals from a slice, each family's Answer — the boolean query, COM,
// SEQ, kNN, ranked and collective — must reproduce core.Run on the same
// query: the payload, F, Pruned, PairDistCalcs and the early stop. It must
// read exactly the arrivals the expansion emitted, and stop the source
// exactly when COM or the collective query terminates early.
func TestDiversifyArrivalsSourceIndependence(t *testing.T) {
	ds, err := dataset.GeneratePreset(dataset.PresetNA, 400, 21)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := harness.Build(ds, []harness.IndexKind{harness.KindSIF}, harness.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ws, err := dataset.GenerateWorkload(ds.Objects, ds.VocabSize, dataset.WorkloadConfig{
		NumQueries: 50, Keywords: 2, DeltaMaxPerKeyword: 2000, Seed: 31,
	})
	if err != nil {
		t.Fatal(err)
	}
	loader, err := sys.Loader(harness.KindSIF)
	if err != nil {
		t.Fatal(err)
	}
	families := []struct {
		name  string
		query func(wq dataset.Query, k int) core.Query
		stops bool // Answer stops its source when it terminates early
	}{
		{"boolean", func(wq dataset.Query, _ int) core.Query { return harness.SKQueryOf(wq) }, false},
		{"COM", func(wq dataset.Query, k int) core.Query { return harness.DivQueryOf(wq, k, 0.8) }, true},
		{"SEQ", func(wq dataset.Query, k int) core.Query {
			return baselines.SEQQuery{DivQuery: harness.DivQueryOf(wq, k, 0.8)}
		}, false},
		{"kNN", func(wq dataset.Query, k int) core.Query {
			return core.KNNQuery{Pos: wq.Pos, Terms: wq.Terms, K: k, MaxDist: wq.DeltaMax}
		}, false},
		{"ranked", func(wq dataset.Query, k int) core.Query {
			return core.RankedQuery{Pos: wq.Pos, Terms: wq.Terms, K: k, Alpha: 0.5, DeltaMax: wq.DeltaMax}
		}, false},
		{"collective", func(wq dataset.Query, _ int) core.Query {
			return core.CollectiveQuery{Pos: wq.Pos, Terms: wq.Terms, DeltaMax: wq.DeltaMax}
		}, true},
	}
	payload := func(r core.Result) core.Result {
		return core.Result{Candidates: r.Candidates, F: r.F, Ranked: r.Ranked, Collective: r.Collective}
	}
	ctx := context.Background()
	for _, fam := range families {
		early, pruned, answered := 0, int64(0), 0
		for qi, wq := range ws {
			k := []int{5, 6, 3, 10, 1}[qi%5]
			q := fam.query(wq, k)
			want, err := core.Run(ctx, sys.Net, loader, q)
			if err != nil {
				t.Fatal(err)
			}
			skq, or := q.Expansion()
			sks, err := core.Open(ctx, sys.Net, loader, skq, or)
			if err != nil {
				t.Fatal(err)
			}
			src := &sliceArrivals{limit: math.Inf(1)}
			for {
				c, ok, err := sks.Next()
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					break
				}
				src.cands, src.terms = append(src.cands, c), append(src.terms, sks.Terms())
			}
			var got core.Result
			if err := q.Answer(ctx, src, sys.Net, &got); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(payload(got), payload(want)) {
				t.Fatalf("%s query %d (k=%d): from a slice %+v, from core.Run %+v", fam.name, qi, k, payload(got), payload(want))
			}
			if got.Stats.Pruned != want.Stats.Pruned || got.Stats.PairDistCalcs != want.Stats.PairDistCalcs ||
				got.Stats.EarlyTerminate != want.Stats.EarlyTerminate {
				t.Fatalf("%s query %d (k=%d): pruned %d pairdists %d early %v, want %d %d %v", fam.name, qi, k,
					got.Stats.Pruned, got.Stats.PairDistCalcs, got.Stats.EarlyTerminate,
					want.Stats.Pruned, want.Stats.PairDistCalcs, want.Stats.EarlyTerminate)
			}
			if int64(src.next) != want.Stats.Candidates {
				t.Fatalf("%s query %d: read %d arrivals, core.Run's expansion emitted %d", fam.name, qi, src.next, want.Stats.Candidates)
			}
			wantStops := 0
			if want.Stats.EarlyTerminate {
				early++
				if fam.stops {
					wantStops = 1
				}
			}
			if src.stopped != wantStops {
				t.Fatalf("%s query %d: source stopped %d times, want %d", fam.name, qi, src.stopped, wantStops)
			}
			pruned += want.Stats.Pruned
			if !reflect.DeepEqual(payload(want), core.Result{}) {
				answered++
			}
		}
		if answered == 0 || (fam.name == "COM" || fam.name == "ranked" || fam.name == "collective") && early == 0 ||
			fam.name == "COM" && pruned == 0 {
			t.Fatalf("%s: vacuous workload: %d answered, %d early stops, %d pruned objects", fam.name, answered, early, pruned)
		}
	}
}

// candidateIDs extracts the object IDs of candidates, in order.
func candidateIDs(cands []core.Candidate) []obj.ID {
	out := make([]obj.ID, len(cands))
	for i, c := range cands {
		out[i] = c.Ref.ID
	}
	return out
}
