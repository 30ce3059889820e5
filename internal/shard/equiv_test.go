package shard

import (
	"context"
	"fmt"
	"math"
	"sort"
	"testing"

	"dsks"
)

// equivFixture builds the same dataset behind an unsharded database and
// behind one shard set per entry of ns.
func equivFixture(t testing.TB, ns []int, opts dsks.Options) (*dsks.DB, []*Set, *dsks.Dataset) {
	t.Helper()
	ds, err := dsks.GeneratePreset(dsks.PresetSYN, 1000, 42)
	if err != nil {
		t.Fatal(err)
	}
	single, err := dsks.OpenDataset(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = single.Close() })
	checkNoPins(t, single)

	sets := make([]*Set, len(ns))
	for i, n := range ns {
		// Each set needs its own collection: OpenDataset retains and
		// mutates the dataset's, so regenerate for an identical,
		// independent copy.
		ds2, err := dsks.GeneratePreset(dsks.PresetSYN, 1000, 42)
		if err != nil {
			t.Fatal(err)
		}
		set, err := Open(ds2.Graph, ds2.Objects, ds2.VocabSize, n, Options{DB: opts})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = set.Close() })
		checkNoPins(t, set)
		sets[i] = set
	}
	return single, sets, ds
}

// sortCandidates normalizes a candidate list to the router's merge
// order; the unsharded engine emits non-decreasing distance with
// expansion-order tie breaks, so ties must be normalized before a
// position-wise comparison.
func sortCandidates(cs []dsks.Candidate) {
	sort.Slice(cs, func(i, j int) bool {
		if cs[i].Dist != cs[j].Dist {
			return cs[i].Dist < cs[j].Dist
		}
		return cs[i].Ref.ID < cs[j].Ref.ID
	})
}

// requireSameCandidates asserts the two lists agree: identical distance
// sequences, and identical IDs everywhere except positions whose sort
// key ties (a truncated tie group may legitimately resolve differently).
func requireSameCandidates(t *testing.T, tag string, want, got []dsks.Candidate) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d candidates, want %d", tag, len(got), len(want))
	}
	for i := range want {
		if math.Abs(want[i].Dist-got[i].Dist) > 1e-9 {
			t.Fatalf("%s: candidate %d dist %v, want %v", tag, i, got[i].Dist, want[i].Dist)
		}
		if want[i].Ref.ID == got[i].Ref.ID {
			continue
		}
		// An ID mismatch is only legal inside a distance tie.
		tied := (i > 0 && want[i-1].Dist == want[i].Dist) ||
			(i+1 < len(want) && want[i+1].Dist == want[i].Dist)
		if !tied {
			t.Fatalf("%s: candidate %d is object %d, want %d (dist %v)",
				tag, i, got[i].Ref.ID, want[i].Ref.ID, want[i].Dist)
		}
	}
}

func workloadQueries(t *testing.T, ds *dsks.Dataset, n int, seed int64) []dsks.WorkloadQuery {
	t.Helper()
	ws, err := dsks.GenerateWorkload(ds.Objects, ds.VocabSize, dsks.WorkloadConfig{
		NumQueries: n, Keywords: 2, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ws
}

// TestShardSingleNodeEquivalence is the shard/single-node property test:
// the same query mix against 1-, 2- and 4-shard sets and an unsharded
// database over the same dataset must produce identical boolean, kNN and
// ranked results, and — the router runs the single node's Algorithm 6 over
// the single node's arrival sequence — the identical diversified answer at
// the identical cost, before and after the same mutations.
func TestShardSingleNodeEquivalence(t *testing.T) {
	single, sets, ds := equivFixture(t, []int{1, 2, 4}, dsks.Options{Index: dsks.IndexSIF})
	ctx := context.Background()
	ws := workloadQueries(t, ds, 25, 11)

	early, pruned, multiLeg := 0, int64(0), 0
	check := func(phase string) {
		t.Helper()
		sv, err := single.View(ctx)
		if err != nil {
			t.Fatal(err)
		}
		defer sv.Close()
		for _, set := range sets {
			mv, err := set.View(ctx)
			if err != nil {
				t.Fatal(err)
			}
			defer mv.Close()
			tag := phase + ", " + itoa(set.Shards()) + " shards: "

			for qi, w := range ws {
				skq := dsks.SKQuery{Pos: w.Pos, Terms: w.Terms, DeltaMax: w.DeltaMax}

				// Boolean range search: identical candidate sets.
				sres, err := sv.Search(ctx, skq)
				if err != nil {
					t.Fatal(err)
				}
				mres, err := mv.Search(ctx, skq)
				if err != nil {
					t.Fatal(err)
				}
				sortCandidates(sres.Candidates)
				requireSameCandidates(t, tag+"search "+itoa(qi), sres.Candidates, mres.Candidates)

				// kNN: identical distance profile, ties tolerated at the cut.
				knn := dsks.KNNQuery{Pos: w.Pos, Terms: w.Terms, K: 5}
				skres, err := sv.SearchKNN(ctx, knn)
				if err != nil {
					t.Fatal(err)
				}
				mkres, err := mv.SearchKNN(ctx, knn)
				if err != nil {
					t.Fatal(err)
				}
				sortCandidates(skres.Candidates)
				requireSameCandidates(t, tag+"knn "+itoa(qi), skres.Candidates, mkres.Candidates)

				// Ranked: identical (score, dist) sequences, tie-tolerant IDs.
				rq := dsks.RankedQuery{Pos: w.Pos, Terms: w.Terms, K: 5, Alpha: 0.5, DeltaMax: w.DeltaMax}
				srres, err := sv.SearchRanked(ctx, rq)
				if err != nil {
					t.Fatal(err)
				}
				mrres, err := mv.SearchRanked(ctx, rq)
				if err != nil {
					t.Fatal(err)
				}
				sortRanked(srres.Ranked)
				sortRanked(mrres.Ranked)
				requireSameRanked(t, tag+"ranked "+itoa(qi), srres.Ranked, mrres.Ranked)

				// Diversified: the same set in the same order at the same
				// cost, over the whole (k, λ) grid — and with k beyond the
				// qualifying objects, where everything is returned and no
				// core pair forms.
				for _, k := range []int{1, 2, 3, 4, 5, 10, len(sres.Candidates) + 3} {
					for _, lambda := range []float64{0, 0.5, 0.8, 1} {
						dq := dsks.DivQuery{SKQuery: skq, K: k, Lambda: lambda}
						dres := requireSameDiversified(t, tag+"diversified "+itoa(qi), sv, mv, dq)
						pruned += dres.Stats.Pruned
						if dres.Stats.EarlyTerminate {
							early++
						}
						if len(mv.Meta().Queried) > 1 {
							multiLeg++
						}
						if k > len(sres.Candidates) && (len(dres.Candidates) != len(sres.Candidates) ||
							dres.Stats.Pruned != 0 || dres.Stats.EarlyTerminate) {
							t.Fatalf("%sdiversified %d, k=%d over %d qualifying objects: chose %d, pruned %d, early %v",
								tag, qi, k, len(sres.Candidates), len(dres.Candidates), dres.Stats.Pruned, dres.Stats.EarlyTerminate)
						}
					}
				}
			}

			// A query no shard can hold a match for routes nowhere: an
			// empty answer from zero legs, as the single node's is empty.
			dq := dsks.DivQuery{SKQuery: dsks.SKQuery{
				Pos: ws[0].Pos, Terms: []dsks.TermID{unusedTerm(t, ds)}, DeltaMax: ws[0].DeltaMax}, K: 4, Lambda: 0.5}
			if dres := requireSameDiversified(t, tag+"unroutable", sv, mv, dq); len(dres.Candidates) != 0 {
				t.Fatalf("%sunroutable query chose %d objects", tag, len(dres.Candidates))
			}
			if m := mv.Meta(); len(m.Queried) != 0 || m.Pruned != set.Shards() {
				t.Fatalf("%sunroutable query meta = %+v, want no legs", tag, m)
			}
		}
	}

	check("initial")

	// Mutate every side identically: the sharded sets must assign the
	// same object IDs an unsharded database does, so results stay
	// ID-comparable after inserts and removes.
	ws2 := workloadQueries(t, ds, 10, 99)
	firstFresh := dsks.ObjectID(ds.Objects.Len())
	for i, w := range ws2 {
		sid, err := single.Insert(w.Pos, w.Terms)
		if err != nil {
			t.Fatal(err)
		}
		for _, set := range sets {
			mid, _, err := set.Insert(w.Pos, w.Terms)
			if err != nil {
				t.Fatal(err)
			}
			if sid != mid {
				t.Fatalf("insert %d: %d-shard set assigned ID %d, single node %d", i, set.Shards(), mid, sid)
			}
		}
	}
	// Remove a few originals and one fresh insert.
	victims := []dsks.ObjectID{3, 17, firstFresh}
	for _, id := range victims {
		if err := single.Remove(id); err != nil {
			t.Fatal(err)
		}
		for _, set := range sets {
			if _, err := set.Remove(id); err != nil {
				t.Fatal(err)
			}
		}
	}

	check("after mutations")
	if early == 0 || pruned == 0 || multiLeg == 0 {
		t.Fatalf("vacuous workload: %d early stops, %d pruned objects, %d multi-leg merges", early, pruned, multiLeg)
	}

	// Double-remove classifies identically.
	if err := single.Remove(victims[0]); err == nil {
		t.Fatal("single-node double remove accepted")
	}
	for _, set := range sets {
		if _, err := set.Remove(victims[0]); err == nil {
			t.Fatal("sharded double remove accepted")
		}
	}
}

// TestDiversifiedKOneStopsAtTheFirstArrival: with k = 1 no pair can form,
// so the answer is the nearest qualifying object and nothing after it can
// change that. One node and the router both return it having computed no
// pair distance, read one arrival and stopped the expansion.
func TestDiversifiedKOneStopsAtTheFirstArrival(t *testing.T) {
	single, sets, ds := equivFixture(t, []int{4}, dsks.Options{Index: dsks.IndexSIF})
	ctx := context.Background()
	sv, err := single.View(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer sv.Close()
	mv, err := sets[0].View(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer mv.Close()
	answered := 0
	for qi, w := range workloadQueries(t, ds, 25, 11) {
		skq := dsks.SKQuery{Pos: w.Pos, Terms: w.Terms, DeltaMax: w.DeltaMax}
		all, err := sv.Search(ctx, skq)
		if err != nil {
			t.Fatal(err)
		}
		sortCandidates(all.Candidates)
		for _, lambda := range []float64{0, 0.5, 0.8, 1} {
			tag := fmt.Sprintf("query %d (λ=%v)", qi, lambda)
			dq := dsks.DivQuery{SKQuery: skq, K: 1, Lambda: lambda}
			res := requireSameDiversified(t, tag, sv, mv, dq)
			if len(all.Candidates) < 2 {
				continue
			}
			answered++
			// The nearest, the expansion's first arrival; no distance ties
			// at the front of this workload.
			if all.Candidates[0].Dist == all.Candidates[1].Dist {
				t.Fatalf("%s: the two nearest objects tie", tag)
			}
			if len(res.Candidates) != 1 || res.Candidates[0].Ref.ID != all.Candidates[0].Ref.ID {
				t.Fatalf("%s: chose %v, want object %d alone", tag, res.Candidates, all.Candidates[0].Ref.ID)
			}
			if res.Stats.PairDistCalcs != 0 || !res.Stats.EarlyTerminate {
				t.Fatalf("%s: %d pair distances, early stop %v; want none and a stop", tag,
					res.Stats.PairDistCalcs, res.Stats.EarlyTerminate)
			}
			// Behind the router the merge read one arrival, and each leg it
			// opened emitted at most the head the merge compared.
			if legs := len(mv.Meta().Queried); res.Stats.Candidates > int64(legs) {
				t.Fatalf("%s: the router's legs emitted %d arrivals over %d legs", tag, res.Stats.Candidates, legs)
			}
			one, err := sv.SearchDiversified(ctx, dq)
			if err != nil {
				t.Fatal(err)
			}
			if one.Stats.Candidates != 1 {
				t.Fatalf("%s: the single node's expansion emitted %d arrivals, want 1 of %d",
					tag, one.Stats.Candidates, len(all.Candidates))
			}
		}
	}
	t.Logf("%d answers over two or more qualifying objects", answered)
	if answered == 0 {
		t.Fatal("no query had two qualifying objects; the test is vacuous")
	}
}

// requireSameDiversified runs dq on the single node and on the router and
// asserts identity (requireSameAnswer).
func requireSameDiversified(t *testing.T, tag string, sv *dsks.View, mv *MultiView, dq dsks.DivQuery) dsks.Result {
	t.Helper()
	ctx := context.Background()
	want, err := sv.SearchDiversified(ctx, dq)
	if err != nil {
		t.Fatal(err)
	}
	got, err := mv.SearchDiversified(ctx, dq)
	if err != nil {
		t.Fatal(err)
	}
	requireSameAnswer(t, fmt.Sprintf("%s (k=%d, λ=%v)", tag, dq.K, dq.Lambda), want, got)
	return got
}

// requireSameAnswer asserts two diversified results are one answer at one
// cost: the same objects at the same distances in the same order, F within
// the float tolerance, and the counters that depend only on the arrival
// sequence — Pruned, PairDistCalcs, EarlyTerminate — equal, which any
// duplicated or lost arrival would move.
func requireSameAnswer(t *testing.T, tag string, want, got dsks.Result) {
	t.Helper()
	if len(got.Candidates) != len(want.Candidates) {
		t.Fatalf("%s: chose %d objects, want %d", tag, len(got.Candidates), len(want.Candidates))
	}
	for i := range want.Candidates {
		if got.Candidates[i].Ref.ID != want.Candidates[i].Ref.ID || got.Candidates[i].Dist != want.Candidates[i].Dist {
			t.Fatalf("%s: object %d is %d at %v, want %d at %v", tag, i,
				got.Candidates[i].Ref.ID, got.Candidates[i].Dist, want.Candidates[i].Ref.ID, want.Candidates[i].Dist)
		}
	}
	if tol := 1e-6 * math.Max(1, math.Abs(want.F)); math.Abs(want.F-got.F) > tol {
		t.Fatalf("%s: objective %v, want %v", tag, got.F, want.F)
	}
	if got.Stats.Pruned != want.Stats.Pruned || got.Stats.PairDistCalcs != want.Stats.PairDistCalcs ||
		got.Stats.EarlyTerminate != want.Stats.EarlyTerminate {
		t.Fatalf("%s: pruned %d, pair distances %d, early stop %v; want %d, %d, %v", tag,
			got.Stats.Pruned, got.Stats.PairDistCalcs, got.Stats.EarlyTerminate,
			want.Stats.Pruned, want.Stats.PairDistCalcs, want.Stats.EarlyTerminate)
	}
}

// unusedTerm finds a vocabulary term no object of ds carries.
func unusedTerm(t testing.TB, ds *dsks.Dataset) dsks.TermID {
	t.Helper()
	used := make([]bool, ds.VocabSize)
	for id := 0; id < ds.Objects.Len(); id++ {
		for _, term := range ds.Objects.Get(dsks.ObjectID(id)).Terms {
			used[term] = true
		}
	}
	for term, u := range used {
		if !u {
			return dsks.TermID(term)
		}
	}
	t.Fatal("every vocabulary term is in use")
	return 0
}

// sortRanked applies the router's merge order so tie groups line up on
// both sides before the position-wise comparison.
func sortRanked(rs []dsks.RankedResult) {
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].Score != rs[j].Score {
			return rs[i].Score > rs[j].Score
		}
		if rs[i].Dist != rs[j].Dist {
			return rs[i].Dist < rs[j].Dist
		}
		return rs[i].Ref.ID < rs[j].Ref.ID
	})
}

func requireSameRanked(t *testing.T, tag string, want, got []dsks.RankedResult) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d results, want %d", tag, len(got), len(want))
	}
	for i := range want {
		if math.Abs(want[i].Score-got[i].Score) > 1e-9 || math.Abs(want[i].Dist-got[i].Dist) > 1e-9 {
			t.Fatalf("%s: rank %d (score %v, dist %v), want (%v, %v)",
				tag, i, got[i].Score, got[i].Dist, want[i].Score, want[i].Dist)
		}
		if want[i].Ref.ID == got[i].Ref.ID {
			continue
		}
		tied := (i > 0 && want[i-1].Score == want[i].Score) ||
			(i+1 < len(want) && want[i+1].Score == want[i].Score)
		if !tied {
			t.Fatalf("%s: rank %d is object %d, want %d", tag, i, got[i].Ref.ID, want[i].Ref.ID)
		}
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b [8]byte
	n := len(b)
	for i > 0 {
		n--
		b[n] = byte('0' + i%10)
		i /= 10
	}
	return string(b[n:])
}
