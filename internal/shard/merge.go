package shard

import (
	"context"
	"errors"
	"fmt"
	"time"

	"dsks"
	"dsks/internal/core"
	"dsks/internal/engine"
)

// Every MultiView query family runs the way one node runs it: the
// family's Answer in core over an arrival source. One node's source is its
// own expansion; the router's is the (distance, object ID) merge of the
// routed legs' streams, the arrival sequence of the unsharded expansion
// (legMerge), pulled on the request goroutine. So every family answers
// exactly as one node does: lowering the merge's radius (ranked) lowers
// every leg's, stopping it (kNN, the early stops of COM and collective)
// stops every leg, and COM's pair distances run on the replicated network.
// A kNN's legs run within MaxDist, or unbounded when it is 0; none is
// read past its share of the k plus the one head the merge compared.

// Query runs q as one node's View.Query does: q is validated, then the
// view is checked open and the expansion's position and terms guarded,
// and the expansion routed — a shard missing any term is skipped for a
// boolean family, only one missing every term for an OR family (ranked,
// collective). q's answer then runs over the routed legs' merged streams.
// A nil q, or a nil pointer to a family, is an error. One KindMerge sample is recorded per query on every
// exit path.
func (mv *MultiView) Query(ctx context.Context, q dsks.Query) (res dsks.Result, err error) {
	start := time.Now()
	var own time.Duration
	defer func() { mv.finish(&res, start, own, err) }()
	if err := core.Check(q); err != nil {
		return dsks.Result{}, err
	}
	if mv.closed.Load() {
		return dsks.Result{}, dsks.ErrViewClosed
	}
	skq, or := q.Expansion()
	if err := engine.CheckPosTerms(mv.set.g, mv.set.vocab, "query", skq.Pos, skq.Terms); err != nil {
		return dsks.Result{}, err
	}
	targets := mv.routed(skq.Pos, skq.DeltaMax, skq.Terms, !or)
	cursors := mv.cursors(ctx, targets, skq)
	if or {
		for _, c := range cursors {
			c.open = (*dsks.View).StreamAny
		}
	}
	res, own, err = mv.merge(ctx, targets, cursors, q)
	return res, err
}

// SearchDiversified is Query for a DivQuery. It is kept only because the
// frozen benchmark (bench/trace.go) calls it; it goes when the benchmark
// moves to Query.
func (mv *MultiView) SearchDiversified(ctx context.Context, q dsks.DivQuery) (dsks.Result, error) {
	return mv.Query(ctx, q)
}

// routed lists the shards a query with the given position, radius and
// terms must visit. Distance pruning uses the partition's sound lower
// bound networkDist >= MinCostRatio·euclid against each region MBR; term
// pruning asks each shard's pinned view which terms it holds (the
// question Algorithm 2 asks of an edge) — with allTerms set (the
// boolean/diversified/kNN AND semantics) a shard missing any query term
// is skipped, otherwise (ranked/collective OR semantics) only a shard
// missing every term is. The views' posting counts are exact at their
// LSNs, so a shard left out holds no candidate at the pinned vector.
func (mv *MultiView) routed(pos dsks.Position, radius float64, terms []dsks.TermID, allTerms bool) []int {
	s := mv.set
	pt := s.g.PointAt(pos.Edge, pos.Offset)
	out := make([]int, 0, len(s.shards))
	for i, v := range mv.views {
		lb, nonEmpty := s.part.LowerBound(i, pt)
		if !nonEmpty || (radius > 0 && lb > radius) {
			continue
		}
		if len(terms) > 0 && !holds(v, terms, allTerms) {
			continue
		}
		out = append(out, i)
	}
	return out
}

// holds reports whether view v holds every term (allTerms) or any term of
// terms.
func holds(v *dsks.View, terms []dsks.TermID, allTerms bool) bool {
	for _, t := range terms {
		if v.HoldsTerm(t) != allTerms {
			// A missing term fails AND; a held one satisfies OR.
			return !allTerms
		}
	}
	return allTerms
}

// merge runs q's answer over the cursors' merged streams, then ends every
// leg — stream stopped and accounted, replica view closed, no race still
// running — and applies the failure policy, on every path. The Result is
// the answer with the succeeding legs' envelopes folded in; own is the
// router's time outside the leg pulls.
func (mv *MultiView) merge(ctx context.Context, targets []int, cursors []*legCursor, q core.Query) (res dsks.Result, own time.Duration, err error) {
	sources := make([]core.ArrivalSource, len(cursors))
	for i, c := range cursors {
		sources[i] = c
	}
	merged := newLegMerge(sources)
	start := time.Now()
	cerr := q.Answer(ctx, merged, mv.set.searchNet, &res)
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
