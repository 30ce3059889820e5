package experiments

import (
	"context"

	"fmt"
	"math"
	"math/rand"

	"dsks/internal/core"
	"dsks/internal/dataset"
	"dsks/internal/harness"
)

// ExtraQuality is an additional experiment beyond the paper's figures: the
// effectiveness of diversification. For each query, four strategies pick k
// objects from the qualifying candidates — the k nearest (no diversity), a
// random k, and the 2-approximate greedy as run by SEQ and COM — and the
// experiment reports the average objective value f(S) and the average
// closest-pair network distance of the chosen sets. The greedy strategies
// must dominate f(S), and their result sets must spread much further than
// the nearest-k (the paper's Example 1, quantified).
func ExtraQuality(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	r := newResult("Extra: diversification effectiveness (NA, k = 6, λ = 0.35)",
		"strategy", "avg f(S)", "avg closest pair dist", "queries")
	ds, err := dataset.GeneratePreset(dataset.PresetNA, cfg.Scale, cfg.Seed)
	if err != nil {
		return nil, err
	}
	sys, err := harness.Build(ds, []harness.IndexKind{harness.KindSIF}, harness.Options{})
	if err != nil {
		return nil, err
	}
	ws, err := dataset.GenerateWorkload(ds.Objects, ds.VocabSize, dataset.WorkloadConfig{
		NumQueries: cfg.Queries, Keywords: 3, Seed: cfg.Seed + 89,
	})
	if err != nil {
		return nil, err
	}
	const k = 6
	const lambda = 0.35
	g := ds.Graph

	type agg struct {
		f, minPair float64
		n          int
	}
	results := map[string]*agg{}
	add := func(name string, params core.DivParams, q dataset.Query, chosen []core.Candidate) {
		if len(chosen) < 2 {
			return
		}
		a := results[name]
		if a == nil {
			a = &agg{}
			results[name] = a
		}
		f := 0.0
		minPair := math.Inf(1)
		for i := range chosen {
			for j := i + 1; j < len(chosen); j++ {
				d := g.NetworkDist(chosen[i].Ref.Pos(), chosen[j].Ref.Pos())
				f += params.ThetaFromDists(chosen[i].Dist, chosen[j].Dist, d)
				if d < minPair {
					minPair = d
				}
			}
		}
		a.f += f
		a.minPair += minPair
		a.n++
	}

	rng := rand.New(rand.NewSource(cfg.Seed + 97))
	for _, wq := range ws {
		params := core.DivParams{K: k, Lambda: lambda, DeltaMax: wq.DeltaMax}
		sk, err := sys.RunSK(context.Background(), harness.KindSIF, harness.SKQueryOf(wq))
		if err != nil {
			return nil, err
		}
		cands := sk.Candidates
		if len(cands) < k {
			continue
		}
		// Nearest-k: the plain boolean result truncated.
		add("nearest-k", params, wq, cands[:k])
		// Random-k.
		perm := rng.Perm(len(cands))
		randK := make([]core.Candidate, k)
		for i := 0; i < k; i++ {
			randK[i] = cands[perm[i]]
		}
		add("random-k", params, wq, randK)
		// The two diversified algorithms.
		for _, algo := range divAlgos {
			res, err := sys.RunDiv(context.Background(), harness.KindSIF, algo, harness.DivQueryOf(wq, k, lambda))
			if err != nil {
				return nil, err
			}
			add(string(algo), params, wq, res.Candidates)
		}
	}
	for _, name := range []string{"nearest-k", "random-k", "SEQ", "COM"} {
		a := results[name]
		if a == nil || a.n == 0 {
			continue
		}
		r.addRow(name, fmt.Sprintf("%.3f", a.f/float64(a.n)), f1(a.minPair/float64(a.n)), i64(int64(a.n)))
		r.series("f/"+name).Append(0, a.f/float64(a.n))
		r.series("minpair/"+name).Append(0, a.minPair/float64(a.n))
	}
	r.Table.Fprint(cfg.Out)
	return r, nil
}
