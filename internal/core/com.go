package core

import (
	"context"
	"time"

	"dsks/internal/ccam"
	"dsks/internal/obj"
)

// PruneOptions toggles Algorithm 6's two pruning rules individually; the
// zero value enables both. Disabling them isolates each rule's
// contribution (the ablation benches use this).
type PruneOptions struct {
	// DisableEarlyStop keeps the network expansion running to DeltaMax
	// even when no unvisited object can enter a core pair. A query with
	// k = 1 forms no pair and stops at its first arrival regardless.
	DisableEarlyStop bool
	// DisableObjectPrune keeps dead visited objects in the pairwise
	// computations.
	DisableObjectPrune bool
}

// DiversifyArrivals is the incremental diversified spatial keyword search
// of Algorithm 6 over src, q's boolean arrivals: objects arrive in
// non-decreasing network distance; the core pairs and the threshold θ_T
// are maintained incrementally (Algorithm 5); and two diversity-based
// pruning rules cut the work — visited objects that can never enter a
// core pair are dropped from future pairwise computations, and the whole
// expansion terminates as soon as no unvisited object can contribute.
// prune switches the rules off one by one (the ablation); DivQuery.Answer
// runs it with both. It is the one arrival loop of the tree, with the core
// pairs, the θ memo, the odd-k padding and the objective. Pair distances
// run on net within 2·DeltaMax. The result carries the diversification
// side only — Candidates, F, the distance engine's counters with Pruned
// and EarlyTerminate, and Trace.Diversify, the time spent outside
// src.Next; the caller adds what its source cost. A failure (src's, or the
// context ending inside the distance engine) returns the work done up to
// it beside the error. src is stopped on an early termination and
// otherwise left to the caller.
func DiversifyArrivals(ctx context.Context, src ArrivalSource, net ccam.Network, q DivQuery, prune PruneOptions) (Result, error) {
	params := DivParams{K: q.K, Lambda: q.Lambda, DeltaMax: q.DeltaMax}
	c := &comState{params: params, memo: make(map[uint64]float64), prune: prune}
	c.dist = NewDistEngine(ctx, net, 2*params.DeltaMax, &c.distStats)
	c.pairs = newCorePairs(params.K/2, func(s int) obj.ID { return c.cands[s].Ref.ID })
	// partial is the work done so far: the outcome of a query that fails
	// mid-flight still reports what it cost.
	partial := func() Result {
		stats := c.distStats
		stats.Pruned = c.pruned
		return Result{Stats: stats, Trace: Trace{Diversify: c.divTime}}
	}
	fail := func(err error) (Result, error) { return partial(), mapCtxErr(err) }
	finish := func(slots []int) (Result, error) {
		divStart := time.Now()
		res := partial() // the counters leave out the objective's own pair distances
		res.Candidates = make([]Candidate, len(slots))
		for i, s := range slots {
			res.Candidates[i] = c.cands[s]
		}
		res.F = SetObjective(len(slots), func(i, j int) float64 { return c.theta(slots[i], slots[j]) })
		c.divTime += time.Since(divStart)
		if c.err != nil {
			return fail(c.err)
		}
		res.Trace.Diversify = c.divTime
		return res, nil
	}

	// Line 1: collect the first k arrivals, slots 0 to k-1, and seed the
	// core pairs with the greedy of Algorithm 1.
	for len(c.cands) < params.K {
		cand, ok, err := src.Next()
		if err != nil {
			return fail(err)
		}
		if !ok {
			break
		}
		c.alive = append(c.alive, c.add(cand))
	}
	if len(c.alive) < params.K {
		// Fewer qualifying objects than k: everything is in the result.
		return finish(c.alive)
	}
	if params.K/2 == 0 {
		// k = 1: no pair ever forms, so θ_T stays 0 and nothing later can
		// change the answer, the first arrival.
		src.Stop()
		res, err := finish(c.alive)
		res.Stats.EarlyTerminate = true
		return res, err
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
	// the core pairs, which is one of slots 0 to k-1 since at most k-1
	// objects are core (pruning may have dropped it from c.alive, never
	// from c.cands).
	result := c.pairs.CoreObjects()
	for s := 0; len(result) < params.K; s++ {
		if !c.pairs.IsCore(s) {
			result = append(result, s)
		}
	}
	res, err := finish(result)
	res.Stats.EarlyTerminate = earlyStop
	return res, err
}

// comState carries the arrival-loop bookkeeping of Algorithm 6. Objects
// are named by arrival slot, their position in the arrival sequence; the
// per-slot slices grow with the arrivals and the memo with the computed
// pairs, so a query holds O(arrivals + computed pairs).
type comState struct {
	params    DivParams
	dist      *DistEngine
	distStats SearchStats        // the distance engine's counters
	cands     []Candidate        // slot -> arrival
	alive     []int              // arrived, unpruned slots in arrival order
	maxSeen   []float64          // slot -> largest θ noted with any other slot
	memo      map[uint64]float64 // pairwise θ cache, keyed by slot pair
	pairs     corePairs[int]
	prune     PruneOptions
	pruned    int64
	divTime   time.Duration
	err       error
}

// add gives cand the next arrival slot and returns it.
func (c *comState) add(cand Candidate) int {
	c.cands = append(c.cands, cand)
	c.maxSeen = append(c.maxSeen, 0)
	return len(c.cands) - 1
}

// theta is the memoized pairwise diversification distance. The distance
// runs from the object with the lower ID, whichever slot came first.
// Distance-engine errors are captured in c.err (the callback signature has
// no error path).
func (c *comState) theta(a, b int) float64 {
	if a > b {
		a, b = b, a
	}
	key := uint64(a)<<32 | uint64(b)
	if t, ok := c.memo[key]; ok {
		return t
	}
	ca, cb := c.cands[a], c.cands[b]
	if ca.Ref.ID > cb.Ref.ID {
		ca, cb = cb, ca
	}
	d, err := c.dist.Dist(ca.Ref.Pos(), cb.Ref.Pos())
	if err != nil {
		c.err = err
		return 0
	}
	t := c.params.ThetaFromDists(ca.Dist, cb.Dist, d)
	c.memo[key] = t
	return t
}

// pairBound is PairBound for two slots: it reads no distance and no page.
func (c *comState) pairBound(a, b int) float64 {
	return c.params.PairBound(c.cands[a].Dist, c.cands[b].Dist)
}

// updateTheta is the θ Algorithm 5 sees: exact, except for a pair whose
// bound is already below θ_T, which gets the bound. Update discards every
// value at most θ_T before it compares it with anything, so the bound
// never reaches a core pair; and since θ_T never falls (Theorem 1), such a
// pair is never needed exactly by Update again.
func (c *comState) updateTheta(a, b int) float64 {
	if ub := c.pairBound(a, b); ub < c.pairs.ThetaT() {
		return ub
	}
	return c.theta(a, b)
}

func (c *comState) noteTheta(a, b int, t float64) {
	if t > c.maxSeen[a] {
		c.maxSeen[a] = t
	}
	if t > c.maxSeen[b] {
		c.maxSeen[b] = t
	}
}

// arrive processes one new candidate (Line 3 of Algorithm 6). A pair whose
// bound is below θ_T is skipped: its distance is not computed, and it is
// not noted in maxSeen, which is exact for the pruning rule too — its θ is
// below θ_T now, and θ_T at every later check is at least as large.
func (c *comState) arrive(cand Candidate) error {
	s := c.add(cand)
	thetaT := c.pairs.ThetaT()
	for _, x := range c.alive {
		if c.pairBound(s, x) < thetaT {
			continue
		}
		c.noteTheta(s, x, c.theta(s, x))
	}
	if c.err != nil {
		return c.err
	}
	c.alive = append(c.alive, s)
	c.pairs.Update(s, c.alive, c.updateTheta)
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
	for _, s := range c.alive {
		ub := c.params.VisitedUnvisitedBound(c.cands[s].Dist, gamma)
		if ub >= thetaT {
			// s could still pair with an unvisited object.
			terminate = false
			survivors = append(survivors, s)
			continue
		}
		// s cannot pair with the future; if it also cannot pair with the
		// past — and is not currently core — it is dead (Lines 13–14).
		if !c.prune.DisableObjectPrune && c.maxSeen[s] < thetaT && !c.pairs.IsCore(s) {
			c.pruned++
			continue
		}
		survivors = append(survivors, s)
	}
	c.alive = survivors
	return terminate
}
