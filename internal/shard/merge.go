package shard

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"dsks"
	"dsks/internal/core"
)

// Search scatters the boolean spatial keyword query to the routed shards
// and merges the candidate lists. Shards are edge-disjoint and every
// shard computes distances on the full (replicated) network, so the
// merged list — sorted by (distance, global ID) — contains exactly the
// candidates an unsharded database would return.
func (mv *MultiView) Search(ctx context.Context, q dsks.SKQuery) (dsks.Result, error) {
	start := time.Now()
	if err := q.Validate(); err != nil {
		return dsks.Result{}, err
	}
	legs, err := mv.scatter(ctx, q.Pos, q.DeltaMax, q.Terms, true,
		func(ctx context.Context, v *dsks.View) (dsks.Result, error) {
			return v.Search(ctx, q)
		})
	if err != nil && !errors.Is(err, ErrPartialResult) {
		return dsks.Result{}, err
	}
	mergeStart := time.Now()
	res := mv.mergeCandidates(legs, 0)
	mv.finish(&res, start, time.Since(mergeStart), err)
	return res, err
}

// SearchKNN merges the per-shard k-nearest lists and keeps the global k
// nearest. Every shard returns its own k best, and the true k nearest
// are each nearest within their home shard, so the union is a superset
// of the answer.
func (mv *MultiView) SearchKNN(ctx context.Context, q dsks.KNNQuery) (dsks.Result, error) {
	start := time.Now()
	if err := q.Validate(); err != nil {
		return dsks.Result{}, err
	}
	legs, err := mv.scatter(ctx, q.Pos, q.MaxDist, q.Terms, true,
		func(ctx context.Context, v *dsks.View) (dsks.Result, error) {
			return v.SearchKNN(ctx, q)
		})
	if err != nil && !errors.Is(err, ErrPartialResult) {
		return dsks.Result{}, err
	}
	mergeStart := time.Now()
	res := mv.mergeCandidates(legs, q.K)
	mv.finish(&res, start, time.Since(mergeStart), err)
	return res, err
}

// SearchRanked merges the per-shard top-k score lists: best score first,
// distance then global ID breaking ties, truncated to k. As with kNN,
// each true top-k object is in its home shard's top-k, so the union
// covers the answer.
func (mv *MultiView) SearchRanked(ctx context.Context, q dsks.RankedQuery) (dsks.Result, error) {
	start := time.Now()
	if err := q.Validate(); err != nil {
		return dsks.Result{}, err
	}
	legs, err := mv.scatter(ctx, q.Pos, q.DeltaMax, q.Terms, false,
		func(ctx context.Context, v *dsks.View) (dsks.Result, error) {
			return v.SearchRanked(ctx, q)
		})
	if err != nil && !errors.Is(err, ErrPartialResult) {
		return dsks.Result{}, err
	}
	mergeStart := time.Now()
	res := mv.foldLegs(legs)
	for _, l := range legs {
		for _, r := range l.res.Ranked {
			r.Ref.ID = mv.set.globalOf(l.shard, r.Ref.ID)
			res.Ranked = append(res.Ranked, r)
		}
	}
	sort.Slice(res.Ranked, func(i, j int) bool {
		a, b := res.Ranked[i], res.Ranked[j]
		if a.Score != b.Score {
			return a.Score > b.Score
		}
		if a.Dist != b.Dist {
			return a.Dist < b.Dist
		}
		return a.Ref.ID < b.Ref.ID
	})
	if len(res.Ranked) > q.K {
		res.Ranked = res.Ranked[:q.K]
	}
	mv.finish(&res, start, time.Since(mergeStart), err)
	return res, err
}

// SearchDiversified runs the paper's diversified query across shards the
// way one node runs it: Algorithm 6 (core.DiversifyArrivals) over the
// routed legs' boolean streams merged by (distance, global ID), with the
// pair distances computed on the replicated network. The merged stream is
// the unsharded arrival sequence, so the answer, the pruning and the early
// stop are the single node's, and a leg is read no further than the
// algorithm needed. Legs are pulled on the calling goroutine.
func (mv *MultiView) SearchDiversified(ctx context.Context, q dsks.DivQuery) (res dsks.Result, err error) {
	start := time.Now()
	// One KindMerge sample per query on every exit path; its time is the
	// router's own work, the diversification outside the leg pulls.
	defer func() { mv.finish(&res, start, res.Trace.Diversify, err) }()
	if err := q.Validate(); err != nil {
		return dsks.Result{}, err
	}
	if mv.closed.Load() {
		return dsks.Result{}, dsks.ErrViewClosed
	}
	if err := mv.set.guard(q.Pos, q.Terms); err != nil {
		return dsks.Result{}, err
	}
	targets := mv.set.routed(q.Pos, q.DeltaMax, q.Terms, true)
	return mv.diversify(ctx, targets, mv.cursors(ctx, targets, q.SKQuery), q)
}

// diversify runs the merge and Algorithm 6 over the cursors and ends every
// one of them — stream stopped and accounted, replica view closed, no race
// still running — before it returns, on every path.
func (mv *MultiView) diversify(ctx context.Context, targets []int, cursors []*legCursor, q dsks.DivQuery) (dsks.Result, error) {
	sources := make([]core.ArrivalSource, len(cursors))
	for i, c := range cursors {
		sources[i] = c
	}
	merged := newLegMerge(sources)
	div, derr := core.DiversifyArrivals(ctx, merged, mv.set.searchNet,
		core.DivParams{K: q.K, Lambda: q.Lambda, DeltaMax: q.DeltaMax}, core.PruneOptions{})
	merged.Stop()
	mv.racers.Wait()

	legs := make([]leg, len(cursors))
	for i, c := range cursors {
		legs[i] = leg{shard: c.shard, res: c.res, err: c.err}
	}
	ok, err := mv.gather(targets, legs)
	if derr != nil && (err == nil || errors.Is(err, ErrPartialResult)) {
		// No leg's failure: the context ended inside the distance engine.
		err = mapCtxErr(derr)
	}
	res := mv.foldLegs(ok)
	res.Trace.Diversify = div.Trace.Diversify
	if err != nil && !errors.Is(err, ErrPartialResult) {
		return res, err // the work done, for the query's sample
	}
	res.Stats.Add(div.Stats)
	res.Candidates, res.F = div.Objects, div.F
	return res, err
}

// SearchCollective routes the collective query and keeps the best
// single-shard group: full coverage beats partial, then lower cost, then
// the lower shard index. Unlike the other merges this is a bounded
// approximation — the unsharded greedy may mix objects across shard
// boundaries — which docs/SHARDING.md calls out.
func (mv *MultiView) SearchCollective(ctx context.Context, q dsks.CollectiveQuery) (dsks.Result, error) {
	start := time.Now()
	if err := q.Validate(); err != nil {
		return dsks.Result{}, err
	}
	legs, err := mv.scatter(ctx, q.Pos, q.DeltaMax, q.Terms, false,
		func(ctx context.Context, v *dsks.View) (dsks.Result, error) {
			return v.SearchCollective(ctx, q)
		})
	if err != nil && !errors.Is(err, ErrPartialResult) {
		return dsks.Result{}, err
	}
	mergeStart := time.Now()
	res := mv.foldLegs(legs)
	best := -1
	for i, l := range legs {
		c := l.res.Collective
		if c == nil {
			continue
		}
		if best < 0 {
			best = i
			continue
		}
		b := legs[best].res.Collective
		if c.Covered != b.Covered {
			if c.Covered {
				best = i
			}
			continue
		}
		if !c.Covered && len(c.Uncovered) != len(b.Uncovered) {
			if len(c.Uncovered) < len(b.Uncovered) {
				best = i
			}
			continue
		}
		if c.Cost < b.Cost {
			best = i
		}
	}
	if best >= 0 {
		src := legs[best].res.Collective
		group := *src
		group.Objects = append([]dsks.Candidate(nil), src.Objects...)
		for i := range group.Objects {
			group.Objects[i].Ref.ID = mv.set.globalOf(legs[best].shard, group.Objects[i].Ref.ID)
		}
		res.Collective = &group
	} else {
		res.Collective = &dsks.CollectiveResult{
			Covered:   false,
			Uncovered: append([]dsks.TermID(nil), q.Terms...),
		}
	}
	mv.finish(&res, start, time.Since(mergeStart), err)
	return res, err
}

// NetworkDistance answers on shard 0's pinned view: the network is
// replicated, so every shard computes the same exact distance.
func (mv *MultiView) NetworkDistance(ctx context.Context, a, b dsks.Position) (float64, error) {
	if mv.closed.Load() {
		return 0, dsks.ErrViewClosed
	}
	return mv.views[0].NetworkDistance(ctx, a, b)
}

// foldLegs aggregates the shared result fields (stats, disk reads) of
// the successful legs into a fresh Result.
func (mv *MultiView) foldLegs(legs []leg) dsks.Result {
	var res dsks.Result
	for _, l := range legs {
		res.DiskReads += l.res.DiskReads
		res.Stats.Add(l.res.Stats)
	}
	return res
}

// mergeCandidates concatenates the legs' candidate lists, rewrites the
// shard-local object IDs to global ones, and sorts by (distance, global
// ID) — a deterministic total order matching the unsharded engine's
// non-decreasing-distance contract. k > 0 truncates to the k nearest.
func (mv *MultiView) mergeCandidates(legs []leg, k int) dsks.Result {
	res := mv.foldLegs(legs)
	for _, l := range legs {
		for _, c := range l.res.Candidates {
			c.Ref.ID = mv.set.globalOf(l.shard, c.Ref.ID)
			res.Candidates = append(res.Candidates, c)
		}
	}
	sort.Slice(res.Candidates, func(i, j int) bool {
		a, b := res.Candidates[i], res.Candidates[j]
		if a.Dist != b.Dist {
			return a.Dist < b.Dist
		}
		return a.Ref.ID < b.Ref.ID
	})
	if k > 0 && len(res.Candidates) > k {
		res.Candidates = res.Candidates[:k]
	}
	return res
}

// mapCtxErr classifies a context failure from the router-side distance
// engine with the dsks sentinels, matching the engine's own convention.
func mapCtxErr(err error) error {
	switch {
	case errors.Is(err, context.Canceled):
		return fmt.Errorf("shard: merge diversification: %w: %w", dsks.ErrCanceled, err)
	case errors.Is(err, context.DeadlineExceeded):
		return fmt.Errorf("shard: merge diversification: %w: %w", dsks.ErrDeadlineExceeded, err)
	}
	return err
}
