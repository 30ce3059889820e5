package shard

import (
	"context"
	"errors"
	"fmt"
	"time"

	"dsks"
	"dsks/internal/core"
)

// Every MultiView query family runs the way one node runs it: the family's
// function in core over an arrival source. One node's source is its own
// expansion; the router's is the (distance, global ID) merge of the routed
// legs' streams, the arrival sequence of the unsharded expansion
// (legMerge), pulled on the request goroutine. So every family answers
// exactly as one node does.

// Search drains the merged boolean stream: every object within δmax that
// contains every keyword, in non-decreasing distance.
func (mv *MultiView) Search(ctx context.Context, q dsks.SKQuery) (dsks.Result, error) {
	return mv.query(ctx, q, q, false, func(src core.ArrivalSource, res *dsks.Result) (err error) {
		res.Candidates, err = core.TakeArrivals(src, 0)
		return err
	})
}

// SearchKNN takes the merged boolean stream's first k arrivals and stops
// every leg. Legs run within MaxDist, or unbounded when it is 0; none is
// read past its share of the k plus the one head the merge compared.
func (mv *MultiView) SearchKNN(ctx context.Context, q dsks.KNNQuery) (dsks.Result, error) {
	return mv.query(ctx, q, q.SKQuery(), false, func(src core.ArrivalSource, res *dsks.Result) (err error) {
		res.Candidates, err = core.TakeArrivals(src, q.K)
		return err
	})
}

// SearchRanked scores the merged OR stream (core.RankArrivals). Lowering
// the merge's radius once no unseen object can enter the top k lowers
// every leg's.
func (mv *MultiView) SearchRanked(ctx context.Context, q dsks.RankedQuery) (dsks.Result, error) {
	return mv.query(ctx, q, q.SKQuery(), true, func(src core.ArrivalSource, res *dsks.Result) (err error) {
		res.Ranked, res.Stats.EarlyTerminate, err = core.RankArrivals(src, q)
		return err
	})
}

// SearchCollective drains the merged OR stream within δmax and runs the
// set-cover greedy over it (core.CoverArrivals), mixing objects across
// shards as one node does.
func (mv *MultiView) SearchCollective(ctx context.Context, q dsks.CollectiveQuery) (dsks.Result, error) {
	skq := q.SKQuery()
	return mv.query(ctx, q, skq, true, func(src core.ArrivalSource, res *dsks.Result) error {
		group, greedy, err := core.CoverArrivals(src, skq.Terms)
		res.Collective, res.Trace.Diversify = &group, greedy
		return err
	})
}

// SearchDiversified runs the paper's Algorithm 6 (core.DiversifyArrivals)
// over the merged boolean stream, with the pair distances computed on the
// replicated network: the answer, the pruning and the early stop are the
// single node's.
func (mv *MultiView) SearchDiversified(ctx context.Context, q dsks.DivQuery) (dsks.Result, error) {
	return mv.query(ctx, q, q.SKQuery, false, mv.diversifyArrivals(ctx, q))
}

// diversifyArrivals is Algorithm 6 as a consumer of the merged stream.
func (mv *MultiView) diversifyArrivals(ctx context.Context, q dsks.DivQuery) func(core.ArrivalSource, *dsks.Result) error {
	return func(src core.ArrivalSource, res *dsks.Result) error {
		div, err := core.DiversifyArrivals(ctx, src, mv.set.searchNet,
			core.DivParams{K: q.K, Lambda: q.Lambda, DeltaMax: q.DeltaMax}, core.PruneOptions{})
		res.Candidates, res.F, res.Stats, res.Trace.Diversify = div.Objects, div.F, div.Stats, div.Trace.Diversify
		return err
	}
}

// query runs one family: q is validated, the view and skq's position and
// terms guarded, and skq routed — a shard missing any term is skipped for
// a boolean family, only one missing every term for an OR family (ranked,
// collective). consume then runs over the routed legs' merged streams. One
// KindMerge sample is recorded per query on every exit path.
func (mv *MultiView) query(ctx context.Context, q interface{ Validate() error }, skq dsks.SKQuery, or bool,
	consume func(core.ArrivalSource, *dsks.Result) error) (res dsks.Result, err error) {

	start := time.Now()
	var own time.Duration
	defer func() { mv.finish(&res, start, own, err) }()
	if err := q.Validate(); err != nil {
		return dsks.Result{}, err
	}
	if mv.closed.Load() {
		return dsks.Result{}, dsks.ErrViewClosed
	}
	if err := mv.set.guard(skq.Pos, skq.Terms); err != nil {
		return dsks.Result{}, err
	}
	targets := mv.set.routed(skq.Pos, skq.DeltaMax, skq.Terms, !or)
	cursors := mv.cursors(ctx, targets, skq)
	if or {
		for _, c := range cursors {
			c.open = (*dsks.View).StreamAny
		}
	}
	res, own, err = mv.merge(targets, cursors, consume)
	return res, err
}

// merge runs consume over the cursors' merged streams, then ends every leg
// — stream stopped and accounted, replica view closed, no race still
// running — and applies the failure policy, on every path. The Result is
// consume's payload with the succeeding legs' envelopes folded in; own is
// the router's time outside the leg pulls.
func (mv *MultiView) merge(targets []int, cursors []*legCursor, consume func(core.ArrivalSource, *dsks.Result) error) (res dsks.Result, own time.Duration, err error) {
	sources := make([]core.ArrivalSource, len(cursors))
	for i, c := range cursors {
		sources[i] = c
	}
	merged := newLegMerge(sources)
	start := time.Now()
	cerr := consume(merged, &res)
	own = time.Since(start) - merged.pulling
	merged.Stop()
	mv.racers.Wait()

	err = mv.gather(targets, cursors, &res)
	if cerr != nil && (err == nil || errors.Is(err, ErrPartialResult)) {
		// No leg's failure: the context ended inside the distance engine.
		err = mapCtxErr(cerr)
	}
	return res, own, err
}

// NetworkDistance answers on shard 0's pinned view: the network is
// replicated, so every shard computes the same exact distance.
func (mv *MultiView) NetworkDistance(ctx context.Context, a, b dsks.Position) (float64, error) {
	if mv.closed.Load() {
		return 0, dsks.ErrViewClosed
	}
	return mv.views[0].NetworkDistance(ctx, a, b)
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
