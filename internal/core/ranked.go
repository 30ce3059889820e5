package core

import (
	"context"
	"fmt"
	"sort"
	"time"

	"dsks/internal/ccam"
	"dsks/internal/graph"
	"dsks/internal/index"
	"dsks/internal/obj"
)

// RankedQuery is the top-k ranked spatial keyword query (the road-network
// variant studied by Rocha-Junior et al., which the paper's related work
// discusses): instead of the boolean AND, objects are scored by a convex
// combination of spatial proximity and textual overlap,
//
//	score(o) = α·(1 − δ(q,o)/DeltaMax) + (1−α)·|o.T ∩ q.T| / |q.T|
//
// and the K highest-scoring objects containing at least one query keyword
// within DeltaMax are returned.
type RankedQuery struct {
	Pos      graph.Position
	Terms    []obj.TermID
	K        int
	Alpha    float64 // spatial weight in [0,1]
	DeltaMax float64
}

// Validate checks the query's well-formedness.
func (q RankedQuery) Validate() error {
	if len(q.Terms) == 0 {
		return fmt.Errorf("core: ranked query needs at least one keyword")
	}
	if q.K < 1 {
		return fmt.Errorf("core: ranked query needs k >= 1, got %d", q.K)
	}
	if err := finite("position offset", q.Pos.Offset); err != nil {
		return err
	}
	if err := finite("alpha", q.Alpha); err != nil {
		return err
	}
	if err := finite("DeltaMax", q.DeltaMax); err != nil {
		return err
	}
	if q.Alpha < 0 || q.Alpha > 1 {
		return fmt.Errorf("core: alpha must be in [0,1], got %v", q.Alpha)
	}
	if q.DeltaMax <= 0 {
		return fmt.Errorf("core: DeltaMax must be positive, got %v", q.DeltaMax)
	}
	return nil
}

// RankedResult is one scored object.
type RankedResult struct {
	Ref     index.ObjectRef
	Dist    float64
	Matched int
	Score   float64
}

// SearchRanked runs the top-k ranked search by incremental network
// expansion: objects containing any query keyword are scored as they
// arrive (in non-decreasing network distance), and the expansion stops as
// soon as even a perfect textual match at the current frontier could not
// displace the k-th best score — the spatial part of the score is monotone
// in the arrival order. The stats and the per-stage timings cover the work
// done on the error path too.
func SearchRanked(ctx context.Context, net ccam.Network, loader index.UnionLoader, q RankedQuery) ([]RankedResult, SearchStats, Trace, error) {
	if err := q.Validate(); err != nil {
		return nil, SearchStats{}, Trace{}, err
	}
	start := time.Now()
	terms := obj.NormalizeTerms(append([]obj.TermID(nil), q.Terms...))
	x, err := newExpansion(ctx, net, q.Pos, q.DeltaMax, loadAny(ctx, loader, terms))
	if err != nil {
		return nil, SearchStats{}, Trace{}, err
	}
	score := func(dist float64, matched int) float64 {
		spatial := 1 - dist/q.DeltaMax
		if spatial < 0 {
			spatial = 0
		}
		return q.Alpha*spatial + (1-q.Alpha)*float64(matched)/float64(len(terms))
	}
	var top []float64 // the K best scores of the found objects, ascending
	for {
		// Score what the last step found. A distance only ever shrinks, so
		// a score only grows.
		for _, i := range x.fresh {
			o := &x.objs[i]
			sc := score(o.dist, o.matched)
			top = raiseTopK(top, q.K, o.score, sc)
			o.score = sc
		}
		next, ok := x.f.peek()
		if !ok {
			break
		}
		// Early termination: the best possible score of any unseen object
		// (perfect textual match at the frontier distance) cannot displace
		// the k-th best.
		if len(top) == q.K && score(next.Val, len(terms)) <= top[0] {
			x.stats.EarlyTerminate = true
			break
		}
		if _, err := x.step(); err != nil {
			return nil, x.stats, x.trace, err
		}
	}
	x.stats.Candidates = int64(len(x.objs))

	// The k best-scoring objects within range, ties broken by distance then
	// ID for determinism.
	all := make([]RankedResult, 0, len(x.objs))
	for _, o := range x.objs {
		if o.dist <= q.DeltaMax {
			all = append(all, RankedResult{Ref: o.ref, Dist: o.dist, Matched: o.matched, Score: o.score})
		}
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
	x.trace.Total = time.Since(start)
	x.trace.Expansion = x.trace.Total - x.trace.PostingReads
	return all, x.stats, x.trace, nil
}

// raiseTopK maintains top, the (at most) k largest values of a multiset
// of scores in ascending order, when one member grows from old to score
// (old = -1 adds a new member). Only the values matter for the k-th best,
// so any copy of old stands for the member that grew: old is in top
// whenever it is at least top[0], and otherwise score enters only by
// displacing the current k-th.
func raiseTopK(top []float64, k int, old, score float64) []float64 {
	drop := sort.SearchFloat64s(top, old)
	switch {
	case drop < len(top) && top[drop] == old:
	case len(top) < k:
		drop = -1
	case score <= top[0]:
		return top
	default:
		drop = 0
	}
	if drop >= 0 {
		top = append(top[:drop], top[drop+1:]...)
	}
	at := sort.SearchFloat64s(top, score)
	top = append(top, 0)
	copy(top[at+1:], top[at:])
	top[at] = score
	return top
}
