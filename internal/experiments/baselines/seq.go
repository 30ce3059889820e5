package baselines

import (
	"context"
	"time"

	"dsks/internal/ccam"
	"dsks/internal/core"
	"dsks/internal/index"
)

// SearchSEQ is the straw-man of Section 4.1: retrieve every object
// satisfying the spatial keyword constraint with Algorithm 3, compute all
// pairwise diversification distances, and feed them to the greedy of
// Algorithm 1. Its cost is dominated by loading all candidates and the
// full pairwise network distance computation.
func SearchSEQ(ctx context.Context, net ccam.Network, loader index.Loader, q core.DivQuery) (core.DivResult, error) {
	if err := q.Validate(); err != nil {
		return core.DivResult{}, err
	}
	start := time.Now()
	sks, err := core.NewSKSearch(ctx, net, loader, q.SKQuery)
	if err != nil {
		return core.DivResult{}, err
	}
	cands, err := sks.All()
	stats := sks.Stats()
	if err != nil {
		return core.DivResult{Stats: stats, Trace: sks.Trace()}, err
	}

	divStart := time.Now()
	params := core.DivParams{K: q.K, Lambda: q.Lambda, DeltaMax: q.DeltaMax}
	dist := core.NewDistEngine(ctx, net, 2*q.DeltaMax, &stats)

	// The distance engine reports a done context as core's sentinels.
	theta, err := pairwiseTheta(cands, params, dist)
	if err != nil {
		return core.DivResult{Stats: stats, Trace: sks.Trace()}, err
	}
	chosen := core.GreedyDiversify(len(cands), q.K, theta)
	result := make([]core.Candidate, len(chosen))
	for i, idx := range chosen {
		result[i] = cands[idx]
	}
	f := core.SetObjective(len(chosen), func(i, j int) float64 {
		return theta(chosen[i], chosen[j])
	})
	trace := sks.Trace()
	trace.Diversify = time.Since(divStart)
	trace.Total = time.Since(start)
	return core.DivResult{Objects: result, F: f, Stats: stats, Trace: trace}, nil
}

// pairwiseTheta materializes the full pairwise θ matrix (the expensive part
// of SEQ) and returns an index-based lookup.
func pairwiseTheta(cands []core.Candidate, params core.DivParams, dist *core.DistEngine) (func(i, j int) float64, error) {
	n := len(cands)
	matrix := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d, err := dist.Dist(cands[i].Ref.Pos(), cands[j].Ref.Pos())
			if err != nil {
				return nil, err
			}
			t := params.ThetaFromDists(cands[i].Dist, cands[j].Dist, d)
			matrix[i*n+j] = t
			matrix[j*n+i] = t
		}
	}
	return func(i, j int) float64 { return matrix[i*n+j] }, nil
}
