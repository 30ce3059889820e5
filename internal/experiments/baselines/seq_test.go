package baselines

import (
	"context"
	"testing"

	"dsks/internal/core"
	"dsks/internal/dataset"
	"dsks/internal/engine"
)

func BenchmarkSearchSEQ(b *testing.B) {
	ds, err := dataset.GeneratePreset(dataset.PresetNA, 400, 1)
	if err != nil {
		b.Fatal(err)
	}
	e, err := engine.Open(ds.Graph, ds.Objects, ds.VocabSize, engine.Options{Index: engine.KindSIF}, "")
	if err != nil {
		b.Fatal(err)
	}
	ws, err := dataset.GenerateWorkload(ds.Objects, ds.VocabSize, dataset.WorkloadConfig{
		NumQueries: 64, Keywords: 3, Seed: 2,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := ws[i%len(ws)]
		q := core.DivQuery{SKQuery: core.SKQuery{Pos: w.Pos, Terms: w.Terms, DeltaMax: w.DeltaMax}, K: 10, Lambda: 0.8}
		if _, err := core.Run(context.Background(), e.File, e.Loader, SEQQuery{q}); err != nil {
			b.Fatal(err)
		}
	}
}
