package core

import (
	"context"
	"time"

	"dsks/internal/ccam"
	"dsks/internal/index"
	"dsks/internal/obj"
)

// PruneOptions toggles Algorithm 6's two pruning rules individually; the
// zero value enables both. Disabling them isolates each rule's
// contribution (the ablation benches use this).
type PruneOptions struct {
	// DisableEarlyStop keeps the network expansion running to DeltaMax
	// even when no unvisited object can enter a core pair.
	DisableEarlyStop bool
	// DisableObjectPrune keeps dead visited objects in the pairwise
	// computations.
	DisableObjectPrune bool
}

// SearchCOM is the incremental diversified spatial keyword search of
// Algorithm 6: objects arrive from the network expansion in non-decreasing
// network distance; the core pairs and the threshold θ_T are maintained
// incrementally (Algorithm 5); and two diversity-based pruning rules cut
// the work — visited objects that can never enter a core pair are dropped
// from future pairwise computations, and the whole expansion terminates as
// soon as no unvisited object can contribute.
func SearchCOM(ctx context.Context, net ccam.Network, loader index.Loader, q DivQuery) (DivResult, error) {
	return SearchCOMPruned(ctx, net, loader, q, PruneOptions{})
}

// SearchCOMPruned is SearchCOM with explicit control over the pruning
// rules.
func SearchCOMPruned(ctx context.Context, net ccam.Network, loader index.Loader, q DivQuery, prune PruneOptions) (DivResult, error) {
	if err := q.Validate(); err != nil {
		return DivResult{}, err
	}
	start := time.Now()
	sks, err := NewSKSearch(ctx, net, loader, q.SKQuery)
	if err != nil {
		return DivResult{}, err
	}
	params := DivParams{K: q.K, Lambda: q.Lambda, DeltaMax: q.DeltaMax}
	res, err := DiversifyArrivals(ctx, sks, net, params, prune)
	res.Stats.Add(sks.Stats())
	diversify := res.Trace.Diversify
	res.Trace = sks.Trace()
	res.Trace.Diversify = diversify
	res.Trace.Total = time.Since(start)
	return res, err
}

// ArrivalSource is where Algorithm 6's objects come from: the qualifying
// objects of one boolean query, each exactly once, in non-decreasing
// network distance from the query position. Next reports false once the
// source is exhausted; Stop abandons it. A single node's source is its own
// *SKSearch; the shard router's is the merge of its legs' streams. Nothing
// in the algorithm depends on which.
type ArrivalSource interface {
	Next() (Candidate, bool, error)
	Stop()
}

// DiversifyArrivals runs Algorithm 6 over src: the one arrival loop of the
// tree, with the core pairs, the θ memo, both pruning rules, the odd-k
// padding and the objective. Pair distances run on net within 2·DeltaMax.
// The result carries the diversification side only — Objects, F, the
// distance engine's counters with Pruned and EarlyTerminate, and
// Trace.Diversify, the time spent outside src.Next; the caller adds what
// its source cost. A failure (src's, or the context ending inside the
// distance engine) returns the work done up to it beside the error. src is
// stopped on an early termination and otherwise left to the caller.
func DiversifyArrivals(ctx context.Context, src ArrivalSource, net ccam.Network, params DivParams, prune PruneOptions) (DivResult, error) {
	var distStats SearchStats
	c := &comState{
		params:  params,
		dist:    NewDistEngine(ctx, net, 2*params.DeltaMax, &distStats),
		cands:   make(map[obj.ID]Candidate),
		maxSeen: make(map[obj.ID]float64),
		memo:    make(map[[2]obj.ID]float64),
		pairs:   NewCorePairSet(params.K / 2),
		prune:   prune,
	}
	// partial is the work done so far: the outcome of a query that fails
	// mid-flight still reports what it cost.
	partial := func() DivResult {
		stats := distStats
		stats.Pruned = c.pruned
		return DivResult{Stats: stats, Trace: Trace{Diversify: c.divTime}}
	}
	fail := func(err error) (DivResult, error) { return partial(), mapCtxErr(err) }
	finish := func(result []Candidate) (DivResult, error) {
		divStart := time.Now()
		res := partial() // the counters leave out the objective's own pair distances
		res.Objects, res.F = result, c.objective(result)
		c.divTime += time.Since(divStart)
		if c.err != nil {
			return fail(c.err)
		}
		res.Trace.Diversify = c.divTime
		return res, nil
	}

	// Line 1: collect the first k arrivals and seed the core pairs with the
	// greedy of Algorithm 1.
	var first []Candidate
	for len(first) < params.K {
		cand, ok, err := src.Next()
		if err != nil {
			return fail(err)
		}
		if !ok {
			break
		}
		first = append(first, cand)
	}
	for _, cand := range first {
		c.cands[cand.Ref.ID] = cand
		c.alive = append(c.alive, cand.Ref.ID)
	}
	if len(first) < params.K {
		// Fewer qualifying objects than k: everything is in the result.
		return finish(first)
	}
	divStart := time.Now()
	c.pairs.InitGreedy(c.alive, c.theta)
	for i, a := range c.alive {
		for _, b := range c.alive[i+1:] {
			c.noteTheta(a, b, c.theta(a, b))
		}
	}
	c.divTime += time.Since(divStart)
	if c.err != nil {
		return fail(c.err)
	}

	// Lines 2–16: the arrival loop.
	earlyStop := false
	for {
		cand, ok, err := src.Next()
		if err != nil {
			return fail(err)
		}
		if !ok {
			break
		}
		divStart := time.Now()
		err = c.arrive(cand)
		stop := c.canTerminate(cand.Dist) && !prune.DisableEarlyStop
		c.divTime += time.Since(divStart)
		if err != nil {
			return fail(err)
		}
		if stop {
			earlyStop = true
			src.Stop()
			break
		}
	}

	// Assemble the result from the core objects (Line 17). An odd k is
	// padded the way Algorithm 1 pads it: with the earliest arrival outside
	// the core pairs, which is one of the first k since at most k-1 objects
	// are core (pruning may have dropped it from c.alive, never from first).
	result := make([]Candidate, 0, params.K)
	inCore := make(map[obj.ID]bool, params.K)
	for _, id := range c.pairs.CoreObjects() {
		result = append(result, c.cands[id])
		inCore[id] = true
	}
	for _, cand := range first {
		if len(result) < params.K && !inCore[cand.Ref.ID] {
			result = append(result, cand)
		}
	}
	res, err := finish(result)
	res.Stats.EarlyTerminate = earlyStop
	return res, err
}

// comState carries the arrival-loop bookkeeping of Algorithm 6.
type comState struct {
	params  DivParams
	dist    *DistEngine
	cands   map[obj.ID]Candidate
	alive   []obj.ID
	maxSeen map[obj.ID]float64    // largest θ each object has with any other
	memo    map[[2]obj.ID]float64 // pairwise θ cache
	pairs   *CorePairSet
	prune   PruneOptions
	pruned  int64
	divTime time.Duration
	err     error
}

// theta is the memoized pairwise diversification distance. Distance-engine
// errors are captured in c.err (the callback signature has no error path).
func (c *comState) theta(a, b obj.ID) float64 {
	if a > b {
		a, b = b, a
	}
	key := [2]obj.ID{a, b}
	if t, ok := c.memo[key]; ok {
		return t
	}
	ca, cb := c.cands[a], c.cands[b]
	d, err := c.dist.Dist(ca.Ref.Pos(), cb.Ref.Pos())
	if err != nil {
		c.err = err
		return 0
	}
	t := c.params.ThetaFromDists(ca.Dist, cb.Dist, d)
	c.memo[key] = t
	return t
}

func (c *comState) noteTheta(a, b obj.ID, t float64) {
	if t > c.maxSeen[a] {
		c.maxSeen[a] = t
	}
	if t > c.maxSeen[b] {
		c.maxSeen[b] = t
	}
}

// arrive processes one new candidate (Line 3 of Algorithm 6).
func (c *comState) arrive(cand Candidate) error {
	id := cand.Ref.ID
	c.cands[id] = cand
	for _, x := range c.alive {
		c.noteTheta(id, x, c.theta(id, x))
	}
	if c.err != nil {
		return c.err
	}
	c.alive = append(c.alive, id)
	c.pairs.Update(id, c.alive, c.theta)
	return c.err
}

// canTerminate evaluates the pruning rules with frontier gamma (Lines
// 4–16): it may drop visited objects from future computation, and returns
// true when no unvisited object can contribute to a core pair.
func (c *comState) canTerminate(gamma float64) bool {
	thetaT := c.pairs.ThetaT()
	if thetaT == 0 {
		return false
	}
	// Upper bound for a pair of unvisited objects (Lines 5–7).
	terminate := c.params.UnvisitedPairBound(gamma) < thetaT

	// Per-visited-object checks (Lines 8–14).
	survivors := c.alive[:0]
	for _, id := range c.alive {
		cand := c.cands[id]
		ub := c.params.VisitedUnvisitedBound(cand.Dist, gamma)
		if ub >= thetaT {
			// id could still pair with an unvisited object.
			terminate = false
			survivors = append(survivors, id)
			continue
		}
		// id cannot pair with the future; if it also cannot pair with the
		// past — and is not currently core — it is dead (Lines 13–14).
		if !c.prune.DisableObjectPrune && c.maxSeen[id] < thetaT && !c.pairs.IsCore(id) {
			c.pruned++
			delete(c.cands, id)
			delete(c.maxSeen, id)
			continue
		}
		survivors = append(survivors, id)
	}
	c.alive = survivors
	return terminate
}

// objective evaluates f(S) of the chosen set (distance-engine errors land
// in c.err, like every theta call).
func (c *comState) objective(result []Candidate) float64 {
	for _, cand := range result {
		c.cands[cand.Ref.ID] = cand
	}
	return SetObjective(len(result), func(i, j int) float64 {
		return c.theta(result[i].Ref.ID, result[j].Ref.ID)
	})
}
