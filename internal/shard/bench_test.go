package shard

import (
	"context"
	"testing"

	"dsks"
)

// BenchmarkRouterDiversified is the router's diversified path on the
// equivalence fixture: 4 shards, the query shape of the spine's mixed-read
// workload (two keywords, δmax 500 per keyword, k=5, λ=0.8). Beside ns/op
// and allocs/op it reports the counts that say whether the router is still
// running Algorithm 6 incrementally: pair distances and pruned objects per
// query.
func BenchmarkRouterDiversified(b *testing.B) {
	_, sets, ds := equivFixture(b, []int{4}, dsks.Options{Index: dsks.IndexSIF})
	ws, err := dsks.GenerateWorkload(ds.Objects, ds.VocabSize, dsks.WorkloadConfig{
		NumQueries: 64, Keywords: 2, DeltaMaxPerKeyword: 500, Seed: 11,
	})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	mv, err := sets[0].View(ctx)
	if err != nil {
		b.Fatal(err)
	}
	defer mv.Close()
	var pairDists, pruned int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := ws[i%len(ws)]
		res, err := mv.Query(ctx, dsks.DivQuery{
			SKQuery: dsks.SKQuery{Pos: w.Pos, Terms: w.Terms, DeltaMax: w.DeltaMax}, K: 5, Lambda: 0.8,
		})
		if err != nil {
			b.Fatal(err)
		}
		pairDists += res.Stats.PairDistCalcs
		pruned += res.Stats.Pruned
	}
	b.ReportMetric(float64(pairDists)/float64(b.N), "pairdists/op")
	b.ReportMetric(float64(pruned)/float64(b.N), "pruned/op")
}
