package core_test

import (
	"context"
	"strconv"
	"testing"

	"dsks/internal/alt"
	"dsks/internal/ccam"
	"dsks/internal/core"
	"dsks/internal/dataset"
	"dsks/internal/harness"
	"dsks/internal/obj"
	"dsks/internal/storage"
)

func benchWorld(b *testing.B) (*harness.System, []dataset.Query) {
	b.Helper()
	ds, err := dataset.GeneratePreset(dataset.PresetNA, 400, 1)
	if err != nil {
		b.Fatal(err)
	}
	sys, err := harness.Build(ds, []harness.IndexKind{harness.KindSIF}, harness.Options{})
	if err != nil {
		b.Fatal(err)
	}
	ws, err := dataset.GenerateWorkload(ds.Objects, ds.VocabSize, dataset.WorkloadConfig{
		NumQueries: 64, Keywords: 3, Seed: 2,
	})
	if err != nil {
		b.Fatal(err)
	}
	return sys, ws
}

func BenchmarkSKSearch(b *testing.B) {
	sys, ws := benchWorld(b)
	loader, err := sys.Loader(harness.KindSIF)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := harness.SKQueryOf(ws[i%len(ws)])
		s, err := core.NewSKSearch(context.Background(), sys.Net, loader, q)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.All(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSearchCOM reports, beside the time, the pair distances and the
// distance engine's settled nodes per query. At λ = ½ every pair's bound
// is the largest θ possible, so COM skips no pair there.
func BenchmarkSearchCOM(b *testing.B) {
	sys, all := benchWorld(b)
	loader, err := sys.Loader(harness.KindSIF)
	if err != nil {
		b.Fatal(err)
	}
	// Only queries with more qualifying objects than k diversify, so even
	// a one-iteration run shows the counts.
	var ws []dataset.Query
	for _, wq := range all {
		s, err := core.NewSKSearch(context.Background(), sys.Net, loader, harness.SKQueryOf(wq))
		if err != nil {
			b.Fatal(err)
		}
		if cands, err := s.All(); err != nil {
			b.Fatal(err)
		} else if len(cands) > 10 {
			ws = append(ws, wq)
		}
	}
	b.Logf("%d of %d queries diversify", len(ws), len(all))
	for _, lambda := range []float64{0.8, 0.5} {
		b.Run("lambda="+strconv.FormatFloat(lambda, 'g', -1, 64), func(b *testing.B) {
			b.ReportAllocs()
			var pairs, settled int64
			for i := 0; i < b.N; i++ {
				q := harness.DivQueryOf(ws[i%len(ws)], 10, lambda)
				res, err := core.SearchCOM(context.Background(), sys.Net, loader, q)
				if err != nil {
					b.Fatal(err)
				}
				pairs += res.Stats.PairDistCalcs
				settled += res.Stats.DistSettled
			}
			b.ReportMetric(float64(pairs)/float64(b.N), "pairdists/op")
			b.ReportMetric(float64(settled)/float64(b.N), "settled/op")
		})
	}
}

func BenchmarkSearchKNN(b *testing.B) {
	sys, ws := benchWorld(b)
	loader, err := sys.Loader(harness.KindSIF)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wq := ws[i%len(ws)]
		if _, err := core.Run(context.Background(), sys.Net, loader, core.KNNQuery{
			Pos: wq.Pos, Terms: wq.Terms, K: 10, MaxDist: wq.DeltaMax,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDistEngine(b *testing.B) {
	sys, _ := benchWorld(b)
	col := sys.DS.Objects
	eng := core.NewDistEngine(context.Background(), sys.Net, 3000, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := col.Get(obj.ID(i % col.Len())).Pos
		c := col.Get(obj.ID((i * 7) % col.Len())).Pos
		if _, err := eng.Dist(a, c); err != nil {
			b.Fatal(err)
		}
	}
}

// benchDistOn measures DistEngine.Dist over net: pairwise distances
// between cycling object positions, the access pattern of the
// diversification θ matrix.
func benchDistOn(b *testing.B, sys *harness.System, net ccam.Network) {
	col := sys.DS.Objects
	eng := core.NewDistEngine(context.Background(), net, 3000, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := col.Get(obj.ID(i % col.Len())).Pos
		c := col.Get(obj.ID((i * 7) % col.Len())).Pos
		if _, err := eng.Dist(a, c); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDistOracle compares the oracle-assisted engine against the
// blind one at a small and a large landmark count: more landmarks
// tighten the triangle bounds (more LB prunes and UB pinches, fewer A*
// pops) at the price of a longer position-vector computation per point.
func BenchmarkDistOracle(b *testing.B) {
	sys, _ := benchWorld(b)
	b.Run("off", func(b *testing.B) {
		benchDistOn(b, sys, sys.Net)
	})
	for _, l := range []int{4, 32} {
		pool := storage.NewBufferPool(storage.NewPageFile(), 1024, nil)
		o, err := alt.Build(sys.DS.Graph, pool, alt.Config{Landmarks: l, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		b.Run("l="+strconv.Itoa(l), func(b *testing.B) {
			benchDistOn(b, sys, core.WithOracle(sys.Net, o, core.OracleCounters{}))
		})
	}
}

// BenchmarkDistOracleCOMShape replays the pair sequence Algorithm 6 sends
// the engine: one engine per query, every arrival against each earlier one
// before the next arrives. Unlike BenchmarkDistOracle's cycling pairs, the
// sources of consecutive traversals sit within one DeltaMax ball, so what
// the engine remembers across the traversals of a query shows. One op is
// one query's pairs.
func BenchmarkDistOracleCOMShape(b *testing.B) {
	sys, ws := benchWorld(b)
	loader, err := sys.Loader(harness.KindSIF)
	if err != nil {
		b.Fatal(err)
	}
	pool := storage.NewBufferPool(storage.NewPageFile(), 1024, nil)
	o, err := alt.Build(sys.DS.Graph, pool, alt.Config{Landmarks: 16, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	net := core.WithOracle(sys.Net, o, core.OracleCounters{})
	arrivals := make([][]core.Candidate, len(ws))
	pairs := 0
	for i, wq := range ws {
		s, err := core.NewSKSearch(context.Background(), sys.Net, loader, harness.SKQueryOf(wq))
		if err != nil {
			b.Fatal(err)
		}
		if arrivals[i], err = s.All(); err != nil {
			b.Fatal(err)
		}
		arrivals[i] = arrivals[i][:min(len(arrivals[i]), 48)]
		pairs += len(arrivals[i]) * (len(arrivals[i]) - 1) / 2
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wq, cands := ws[i%len(ws)], arrivals[i%len(ws)]
		eng := core.NewDistEngine(context.Background(), net, 2*wq.DeltaMax, nil)
		for j, arrival := range cands {
			for _, alive := range cands[:j] {
				if _, err := eng.Dist(arrival.Ref.Pos(), alive.Ref.Pos()); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.ReportMetric(float64(pairs)/float64(len(ws)), "pairs/query")
}

func BenchmarkCorePairUpdate(b *testing.B) {
	// Synthetic θ world: measures Algorithm 5's maintenance cost alone.
	const n = 512
	theta := func(x, y obj.ID) float64 {
		if x > y {
			x, y = y, x
		}
		h := (uint64(x)*2654435761 + uint64(y)*40503) % 100_000
		return float64(h) / 100_000
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cp := core.NewCorePairSet(5)
		ids := make([]obj.ID, 0, n)
		for j := 0; j < n; j++ {
			ids = append(ids, obj.ID(j))
			if len(ids) == 10 {
				cp.InitGreedy(ids, theta)
			} else if len(ids) > 10 {
				cp.Update(obj.ID(j), ids, theta)
			}
		}
	}
}

func BenchmarkGreedyDiversify(b *testing.B) {
	const n = 256
	theta := func(i, j int) float64 {
		return float64((i*2654435761+j*40503)%100_000) / 100_000
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.GreedyDiversify(n, 10, theta)
	}
}
