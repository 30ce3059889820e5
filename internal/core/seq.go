package core

import (
	"context"
	"time"

	"dsks/internal/ccam"
	"dsks/internal/index"
	"dsks/internal/obj"
)

// DivResult is the outcome of a diversified spatial keyword query: the k
// chosen objects (fewer when fewer qualify), the objective value f(S), the
// cost counters, and the per-stage timings.
type DivResult struct {
	Objects []Candidate
	F       float64
	Stats   SearchStats
	Trace   Trace
}

// SearchSEQ is the straw-man of Section 4.1: retrieve every object
// satisfying the spatial keyword constraint with Algorithm 3, compute all
// pairwise diversification distances, and feed them to the greedy of
// Algorithm 1. Its cost is dominated by loading all candidates and the
// full pairwise network distance computation.
func SearchSEQ(ctx context.Context, net ccam.Network, loader index.Loader, q DivQuery) (DivResult, error) {
	if err := q.Validate(); err != nil {
		return DivResult{}, err
	}
	start := time.Now()
	sks, err := NewSKSearch(ctx, net, loader, q.SKQuery)
	if err != nil {
		return DivResult{}, err
	}
	cands, err := sks.All()
	stats := sks.Stats()
	if err != nil {
		return DivResult{Stats: stats, Trace: sks.Trace()}, err
	}

	divStart := time.Now()
	params := DivParams{K: q.K, Lambda: q.Lambda, DeltaMax: q.DeltaMax}
	dist := NewDistEngine(ctx, net, 2*q.DeltaMax, &stats)

	theta, err := pairwiseTheta(cands, params, dist)
	if err != nil {
		return DivResult{Stats: stats, Trace: sks.Trace()}, mapCtxErr(err)
	}
	chosen := GreedyDiversify(len(cands), q.K, theta)
	result := make([]Candidate, len(chosen))
	for i, idx := range chosen {
		result[i] = cands[idx]
	}
	f := SetObjective(len(chosen), func(i, j int) float64 {
		return theta(chosen[i], chosen[j])
	})
	trace := sks.Trace()
	trace.Diversify = time.Since(divStart)
	trace.Total = time.Since(start)
	return DivResult{Objects: result, F: f, Stats: stats, Trace: trace}, nil
}

// pairwiseTheta materializes the full pairwise θ matrix (the expensive part
// of SEQ) and returns an index-based lookup.
func pairwiseTheta(cands []Candidate, params DivParams, dist *DistEngine) (func(i, j int) float64, error) {
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

// CandidateIDs extracts the object IDs of candidates.
func CandidateIDs(cands []Candidate) []obj.ID {
	out := make([]obj.ID, len(cands))
	for i, c := range cands {
		out[i] = c.Ref.ID
	}
	return out
}
