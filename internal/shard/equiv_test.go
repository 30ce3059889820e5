package shard

import (
	"context"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"testing"

	"dsks"
)

// equivFixture builds the same dataset behind an unsharded database and
// behind one shard set per entry of ns. With opts.WALDir set, each of them
// logs to a directory of its own below it, so a second call with the same
// options reopens every side over its log.
func equivFixture(t testing.TB, ns []int, opts dsks.Options) (*dsks.DB, []*Set, *dsks.Dataset) {
	t.Helper()
	ds, err := dsks.GeneratePreset(dsks.PresetSYN, 1000, 42)
	if err != nil {
		t.Fatal(err)
	}
	walDir := func(name string) dsks.Options {
		o := opts
		if o.WALDir != "" {
			o.WALDir = filepath.Join(o.WALDir, name)
		}
		return o
	}
	single, err := dsks.OpenDataset(ds, walDir("single"))
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
		set, err := Open(ds2.Graph, ds2.Objects, ds2.VocabSize, n, Options{DB: walDir(fmt.Sprintf("set-%d", n))})
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

// collectiveQueries is a three-keyword collective workload at twice the
// generator's radius whose terms come from three different queries, so
// one object rarely covers them all and a group mixes objects, often
// across shard boundaries.
func collectiveQueries(t *testing.T, ds *dsks.Dataset, n int, seed int64) []dsks.CollectiveQuery {
	t.Helper()
	ws, err := dsks.GenerateWorkload(ds.Objects, ds.VocabSize, dsks.WorkloadConfig{
		NumQueries: n, Keywords: 3, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]dsks.CollectiveQuery, n)
	for i, w := range ws {
		terms := make([]dsks.TermID, 3)
		for j := range terms {
			terms[j] = ws[(i+j)%n].Terms[j]
		}
		out[i] = dsks.CollectiveQuery{Pos: w.Pos, Terms: terms, DeltaMax: 2 * w.DeltaMax}
	}
	return out
}

// TestShardSingleNodeEquivalence is the shard/single-node property test:
// the same query mix against 1-, 2- and 4-shard sets and an unsharded
// database over the same dataset must produce identical boolean, kNN,
// ranked and collective results, and — the router runs the single node's
// Algorithm 6 over the single node's arrival sequence — the identical
// diversified answer at the identical cost, before and after the same
// mutations. A router kNN computes at most one candidate per extra leg
// beyond the single node's: the head the merge compared. So does a
// collective query, which on 4 shards stops early exactly when the single
// node does.
func TestShardSingleNodeEquivalence(t *testing.T) {
	opts := dsks.Options{Index: dsks.IndexSIF, WALDir: t.TempDir()}
	single, sets, ds := equivFixture(t, []int{1, 2, 4}, opts)
	ctx := context.Background()
	ws := workloadQueries(t, ds, 25, 11)
	cqs := collectiveQueries(t, ds, 50, 11)
	absent := unusedTerms(t, ds, 2)
	cqs = append(cqs,
		// Absent terms, duplicated and unsorted: no shard is routed, and
		// the uncovered list is the normalized terms on both sides.
		dsks.CollectiveQuery{Pos: ws[0].Pos, Terms: []dsks.TermID{absent[0], absent[0]}, DeltaMax: ws[0].DeltaMax},
		dsks.CollectiveQuery{Pos: ws[0].Pos, Terms: []dsks.TermID{absent[1], absent[0], absent[1]}, DeltaMax: ws[0].DeltaMax},
		dsks.CollectiveQuery{Pos: ws[1].Pos, Terms: []dsks.TermID{absent[1], ws[1].Terms[0], absent[0]}, DeltaMax: ws[1].DeltaMax},
		// More terms than one word of a term set holds.
		dsks.CollectiveQuery{Pos: ws[2].Pos, Terms: firstTerms(70), DeltaMax: 2 * ws[2].DeltaMax})

	early, pruned, multiLeg, colEarly := 0, int64(0), 0, 0
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
				sres, err := sv.Query(ctx, skq)
				if err != nil {
					t.Fatal(err)
				}
				mres, err := mv.Query(ctx, skq)
				if err != nil {
					t.Fatal(err)
				}
				sortCandidates(sres.Candidates)
				requireSameCandidates(t, tag+"search "+itoa(qi), sres.Candidates, mres.Candidates)

				// kNN: identical distance profile, ties tolerated at the cut.
				knn := dsks.KNNQuery{Pos: w.Pos, Terms: w.Terms, K: 5}
				skres, err := sv.Query(ctx, knn)
				if err != nil {
					t.Fatal(err)
				}
				mkres, err := mv.Query(ctx, knn)
				if err != nil {
					t.Fatal(err)
				}
				sortCandidates(skres.Candidates)
				requireSameCandidates(t, tag+"knn "+itoa(qi), skres.Candidates, mkres.Candidates)
				if legs := int64(len(mv.Meta().Queried)); legs > 0 && mkres.Stats.Candidates > skres.Stats.Candidates+legs-1 {
					t.Fatalf("%sknn %d: the router computed %d candidates over %d legs, the single node %d",
						tag, qi, mkres.Stats.Candidates, legs, skres.Stats.Candidates)
				}

				// Ranked: the same objects at the same scores in the same order.
				for _, alpha := range []float64{0, 0.5, 1} {
					rq := dsks.RankedQuery{Pos: w.Pos, Terms: w.Terms, K: 5, Alpha: alpha, DeltaMax: w.DeltaMax}
					srres, err := sv.Query(ctx, rq)
					if err != nil {
						t.Fatal(err)
					}
					mrres, err := mv.Query(ctx, rq)
					if err != nil {
						t.Fatal(err)
					}
					requireSameRanked(t, fmt.Sprintf("%sranked %d (α=%v)", tag, qi, alpha), srres.Ranked, mrres.Ranked)
					if srres.Stats.EarlyTerminate != mrres.Stats.EarlyTerminate {
						t.Fatalf("%sranked %d (α=%v): early stop %v, single node %v",
							tag, qi, alpha, mrres.Stats.EarlyTerminate, srres.Stats.EarlyTerminate)
					}
				}

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

			for qi, cq := range cqs {
				// The group is final after the same arrivals on both
				// sides. A router that stops early has computed at most
				// one more candidate per extra leg, the head the merge
				// compared; one that drains has computed the same ones.
				sres, mres := requireSameCollective(t, tag+"collective "+itoa(qi), sv, mv, cq)
				single, routed, extra := sres.Stats.Candidates, mres.Stats.Candidates, int64(0)
				if legs := int64(len(mv.Meta().Queried)); sres.Stats.EarlyTerminate && legs > 0 {
					extra = legs - 1
				}
				if set.Shards() == 4 && (sres.Stats.EarlyTerminate != mres.Stats.EarlyTerminate || routed < single || routed > single+extra) {
					t.Fatalf("%scollective %d: early stop %v after %d candidates, single node %v after %d", tag, qi,
						mres.Stats.EarlyTerminate, routed, sres.Stats.EarlyTerminate, single)
				}
				if sres.Stats.EarlyTerminate {
					colEarly++
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

	// The inserted objects lie at their own queries' positions: ask those
	// too, so every later phase compares answers that hold fresh IDs.
	ws = append(ws, ws2...)
	check("after mutations")
	if early == 0 || pruned == 0 || multiLeg == 0 || colEarly == 0 {
		t.Fatalf("vacuous workload: %d early stops, %d pruned objects, %d multi-leg merges, %d early collective stops",
			early, pruned, multiLeg, colEarly)
	}

	// Crash-replay: close every side without a save and reopen it over
	// the same dataset and its own log. Replay alone restores the
	// mutations, and the sets must hold them under the IDs they acked.
	if err := single.Close(); err != nil {
		t.Fatal(err)
	}
	for _, set := range sets {
		if err := set.Close(); err != nil {
			t.Fatal(err)
		}
	}
	single, sets, _ = equivFixture(t, []int{1, 2, 4}, opts)
	want := int(firstFresh) + len(ws2) - len(victims)
	if got := single.LiveObjects(); got != want {
		t.Fatalf("single node replayed to %d live objects, want %d", got, want)
	}
	for _, set := range sets {
		if got := set.LiveObjects(); got != want {
			t.Fatalf("%d-shard set replayed to %d live objects, want %d", set.Shards(), got, want)
		}
	}
	check("after crash-replay")

	// Double-remove classifies identically, after the replay too.
	if err := single.Remove(victims[0]); err == nil {
		t.Fatal("single-node double remove accepted")
	}
	for _, set := range sets {
		if _, err := set.Remove(victims[0]); err == nil {
			t.Fatal("sharded double remove accepted")
		}
	}
}

// TestNonFiniteOffsetRejected: a position whose offset is NaN or infinite
// is rejected by one node and by a 4-shard set alike — an insert before
// either reserves an ID, so the next insert gets the same ID on both
// sides, and the set's rejection is the caller's error, not a shard down —
// and a distance or route request at it fails instead of answering.
func TestNonFiniteOffsetRejected(t *testing.T) {
	single, sets, ds := equivFixture(t, []int{4}, dsks.Options{Index: dsks.IndexSIF})
	set := sets[0]
	ctx := context.Background()
	o := ds.Objects.Get(0)
	terms := o.Terms[:1]
	next := dsks.ObjectID(ds.Objects.Len())
	for _, off := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		pos := dsks.Position{Edge: o.Pos.Edge, Offset: off}
		if id, err := single.Insert(pos, terms); err == nil {
			t.Fatalf("offset %v: one node acknowledged object %d", off, id)
		}
		if id, _, err := set.Insert(pos, terms); err == nil || errors.Is(err, ErrShardDown) {
			t.Fatalf("offset %v: the set returned object %d, err %v; want a rejection of the request", off, id, err)
		}
		if d, err := single.NetworkDistance(ctx, pos, o.Pos); err == nil {
			t.Fatalf("offset %v: network distance %v", off, d)
		}
		if r, err := single.ShortestRoute(o.Pos, pos); err == nil {
			t.Fatalf("offset %v: route %+v", off, r)
		}
	}
	sid, err := single.Insert(o.Pos, terms)
	if err != nil {
		t.Fatal(err)
	}
	mid, _, err := set.Insert(o.Pos, terms)
	if err != nil {
		t.Fatal(err)
	}
	if sid != next || mid != next {
		t.Fatalf("the next insert got ID %d on one node and %d on the set, want %d on both", sid, mid, next)
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
		all, err := sv.Query(ctx, skq)
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
			one, err := sv.Query(ctx, dq)
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
	want, err := sv.Query(ctx, dq)
	if err != nil {
		t.Fatal(err)
	}
	got, err := mv.Query(ctx, dq)
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

// firstTerms lists the terms n-1 down to 0.
func firstTerms(n int) []dsks.TermID {
	out := make([]dsks.TermID, n)
	for i := range out {
		out[i] = dsks.TermID(n - 1 - i)
	}
	return out
}

// unusedTerm finds a vocabulary term no object of ds carries.
func unusedTerm(t testing.TB, ds *dsks.Dataset) dsks.TermID {
	t.Helper()
	return unusedTerms(t, ds, 1)[0]
}

// unusedTerms finds the n smallest vocabulary terms no object of ds
// carries.
func unusedTerms(t testing.TB, ds *dsks.Dataset, n int) []dsks.TermID {
	t.Helper()
	used := make([]bool, ds.VocabSize)
	for id := 0; id < ds.Objects.Len(); id++ {
		for _, term := range ds.Objects.Get(dsks.ObjectID(id)).Terms {
			used[term] = true
		}
	}
	var out []dsks.TermID
	for term, u := range used {
		if !u && len(out) < n {
			out = append(out, dsks.TermID(term))
		}
	}
	if len(out) < n {
		t.Fatalf("fewer than %d vocabulary terms are unused", n)
	}
	return out
}

// requireSameRanked asserts two ranked answers are one: the same objects
// at the same distances and scores in the same order.
func requireSameRanked(t *testing.T, tag string, want, got []dsks.RankedResult) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d results, want %d", tag, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: rank %d is object %d (score %v, dist %v), want %d (%v, %v)", tag, i,
				got[i].Ref.ID, got[i].Score, got[i].Dist, want[i].Ref.ID, want[i].Score, want[i].Dist)
		}
	}
}

// requireSameCollective runs cq on the single node and on the router and
// asserts one group: the same members at the same distances, the same
// cost, and the same uncovered terms.
func requireSameCollective(t *testing.T, tag string, sv *dsks.View, mv *MultiView, cq dsks.CollectiveQuery) (want, got dsks.Result) {
	t.Helper()
	ctx := context.Background()
	want, err := sv.Query(ctx, cq)
	if err != nil {
		t.Fatal(err)
	}
	got, err = mv.Query(ctx, cq)
	if err != nil {
		t.Fatal(err)
	}
	requireSameGroup(t, tag, *want.Collective, *got.Collective)
	return want, got
}

func requireSameGroup(t *testing.T, tag string, want, got dsks.CollectiveResult) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: group %+v, want %+v", tag, got, want)
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

// TestCollectiveMatchesReference: on tiny worlds the collective group of
// one node and of 2- and 4-shard routers is the reference's — the
// set-cover greedy written from the query's definition over a linear scan
// of the objects, with distances from the graph's own Dijkstra.
func TestCollectiveMatchesReference(t *testing.T) {
	ctx := context.Background()
	groups, covered := 0, 0
	for _, seed := range []int64{1, 2, 3} {
		open := func() *dsks.Dataset {
			ds, err := dsks.GeneratePreset(dsks.PresetSYN, 2000, seed)
			if err != nil {
				t.Fatal(err)
			}
			return ds
		}
		ds := open()
		single, err := dsks.OpenDataset(ds, dsks.Options{Index: dsks.IndexSIF})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = single.Close() })
		sv, err := single.View(ctx)
		if err != nil {
			t.Fatal(err)
		}
		defer sv.Close()
		var mvs []*MultiView
		for _, n := range []int{2, 4} {
			ds2 := open()
			set, err := Open(ds2.Graph, ds2.Objects, ds2.VocabSize, n, Options{DB: dsks.Options{Index: dsks.IndexSIF}})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = set.Close() })
			mv, err := set.View(ctx)
			if err != nil {
				t.Fatal(err)
			}
			defer mv.Close()
			mvs = append(mvs, mv)
		}
		cqs := append(collectiveQueries(t, ds, 30, seed),
			dsks.CollectiveQuery{Pos: ds.Objects.Get(0).Pos, Terms: firstTerms(ds.VocabSize), DeltaMax: 4000})
		for qi, cq := range cqs {
			want := referenceCollective(ds.Graph, ds.Objects, cq)
			tag := fmt.Sprintf("seed %d, query %d", seed, qi)
			got, err := sv.Query(ctx, cq)
			if err != nil {
				t.Fatal(err)
			}
			requireGroupNear(t, tag+", one node", want, *got.Collective)
			for _, mv := range mvs {
				requireSameCollective(t, fmt.Sprintf("%s, %d shards", tag, len(mv.views)), sv, mv, cq)
			}
			if len(want.Objects) > 1 {
				groups++
			}
			if want.Covered {
				covered++
			}
		}
	}
	if groups == 0 || covered == 0 {
		t.Fatalf("vacuous workload: %d groups of two or more, %d covered", groups, covered)
	}
}

// referenceCollective is the collective query written from its definition,
// independent of core: every live object within δmax that holds a query
// keyword, by (distance, ID); then, until every keyword is covered or none
// can be, the object with the lowest distance per newly covered keyword,
// the earlier one on a tie.
func referenceCollective(g *dsks.Graph, col *dsks.Collection, q dsks.CollectiveQuery) dsks.CollectiveResult {
	need := map[dsks.TermID]bool{}
	for _, t := range q.Terms {
		need[t] = true
	}
	type cand struct {
		c   dsks.Candidate
		has []dsks.TermID
	}
	var cands []cand
	for id := 0; id < col.Len(); id++ {
		oid := dsks.ObjectID(id)
		if col.Removed(oid) {
			continue
		}
		o := col.Get(oid)
		var has []dsks.TermID
		for _, t := range o.Terms {
			if need[t] {
				has = append(has, t)
			}
		}
		if len(has) == 0 {
			continue
		}
		if d := g.NetworkDist(q.Pos, o.Pos); d <= q.DeltaMax {
			c := dsks.Candidate{Dist: d}
			c.Ref.ID, c.Ref.Edge, c.Ref.Offset = oid, o.Pos.Edge, o.Pos.Offset
			cands = append(cands, cand{c, has})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].c.Dist != cands[j].c.Dist {
			return cands[i].c.Dist < cands[j].c.Dist
		}
		return cands[i].c.Ref.ID < cands[j].c.Ref.ID
	})
	var res dsks.CollectiveResult
	for len(need) > 0 {
		best, bestRatio := -1, math.Inf(1)
		for i, c := range cands {
			gain := 0
			for _, t := range c.has {
				if need[t] {
					gain++
				}
			}
			if gain > 0 && c.c.Dist/float64(gain) < bestRatio {
				best, bestRatio = i, c.c.Dist/float64(gain)
			}
		}
		if best < 0 {
			break
		}
		res.Objects = append(res.Objects, cands[best].c)
		res.Cost += cands[best].c.Dist
		for _, t := range cands[best].has {
			delete(need, t)
		}
	}
	res.Covered = len(need) == 0
	for t := range need {
		res.Uncovered = append(res.Uncovered, t)
	}
	sort.Slice(res.Uncovered, func(i, j int) bool { return res.Uncovered[i] < res.Uncovered[j] })
	sort.Slice(res.Objects, func(i, j int) bool {
		if res.Objects[i].Dist != res.Objects[j].Dist {
			return res.Objects[i].Dist < res.Objects[j].Dist
		}
		return res.Objects[i].Ref.ID < res.Objects[j].Ref.ID
	})
	return res
}

// requireGroupNear asserts got is the reference group want: the same
// members and uncovered keywords, distances and cost equal up to the
// rounding of two different shortest-path codes.
func requireGroupNear(t *testing.T, tag string, want, got dsks.CollectiveResult) {
	t.Helper()
	near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(a)) }
	same := got.Covered == want.Covered && reflect.DeepEqual(got.Uncovered, want.Uncovered) &&
		len(got.Objects) == len(want.Objects) && near(got.Cost, want.Cost)
	for i := 0; same && i < len(want.Objects); i++ {
		same = got.Objects[i].Ref == want.Objects[i].Ref && near(got.Objects[i].Dist, want.Objects[i].Dist)
	}
	if !same {
		t.Fatalf("%s: group %+v, want %+v", tag, got, want)
	}
}

// TestRoutingDropsAShardThatLostATerm: once every holder of a term on one
// shard is removed, a boolean query on that term leaves the shard out —
// the router asks the shard's pinned view, whose posting counts a remove
// lowers — and still answers as the single node does.
func TestRoutingDropsAShardThatLostATerm(t *testing.T) {
	single, sets, ds := equivFixture(t, []int{4}, dsks.Options{Index: dsks.IndexSIF})
	set := sets[0]
	ctx := context.Background()
	const term, lost = dsks.TermID(0), 1
	var holders []dsks.ObjectID
	for id := 0; id < ds.Objects.Len(); id++ {
		o := ds.Objects.Get(dsks.ObjectID(id))
		if o.HasTerm(term) && int(set.Partition().Owner[o.Pos.Edge]) == lost {
			holders = append(holders, o.ID)
		}
	}
	if len(holders) == 0 {
		t.Fatalf("no object on shard %d holds term %d", lost, term)
	}
	q := dsks.SKQuery{Pos: ds.Objects.Get(holders[0]).Pos, Terms: []dsks.TermID{term}, DeltaMax: 1e9}

	search := func(phase string) []int {
		t.Helper()
		want, err := single.Query(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		mv, err := set.View(ctx)
		if err != nil {
			t.Fatal(err)
		}
		defer mv.Close()
		got, err := mv.Query(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		sortCandidates(want.Candidates)
		sortCandidates(got.Candidates)
		requireSameCandidates(t, phase, want.Candidates, got.Candidates)
		return mv.Meta().Queried
	}

	if queried := search("before"); !slices.Contains(queried, lost) {
		t.Fatalf("before the removes shard %d was not queried: %v", lost, queried)
	}
	for _, id := range holders {
		if err := single.Remove(id); err != nil {
			t.Fatal(err)
		}
		if _, err := set.Remove(id); err != nil {
			t.Fatal(err)
		}
	}
	if queried := search("after"); slices.Contains(queried, lost) {
		t.Fatalf("shard %d holds no object with term %d and was queried: %v", lost, term, queried)
	}
}
