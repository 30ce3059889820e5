package baselines

import (
	"context"
	"time"

	"dsks/internal/ccam"
	"dsks/internal/core"
)

// SEQQuery is the straw-man of Section 4.1 as a query family: it reads
// the diversified query's boolean expansion (Algorithm 3) to the end,
// computes all pairwise diversification distances, and feeds them to the
// greedy of Algorithm 1. Its cost is dominated by loading all candidates
// and the full pairwise network distance computation.
type SEQQuery struct{ core.DivQuery }

// Answer drains src, then runs the greedy over every pair of its arrivals.
// The pairwise distances and the greedy are Trace.Diversify.
func (q SEQQuery) Answer(ctx context.Context, src core.ArrivalSource, net ccam.Network, res *core.Result) error {
	if err := q.SKQuery.Answer(ctx, src, net, res); err != nil {
		return err
	}
	cands := res.Candidates
	start := time.Now()
	params := core.DivParams{K: q.K, Lambda: q.Lambda, DeltaMax: q.DeltaMax}
	dist := core.NewDistEngine(ctx, net, 2*q.DeltaMax, &res.Stats)

	// The distance engine reports a done context as core's sentinels.
	theta, err := pairwiseTheta(cands, params, dist)
	if err != nil {
		return err
	}
	chosen := core.GreedyDiversify(len(cands), q.K, theta)
	res.Candidates = make([]core.Candidate, len(chosen))
	for i, idx := range chosen {
		res.Candidates[i] = cands[idx]
	}
	res.F = core.SetObjective(len(chosen), func(i, j int) float64 {
		return theta(chosen[i], chosen[j])
	})
	res.Trace.Diversify = time.Since(start)
	return nil
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
