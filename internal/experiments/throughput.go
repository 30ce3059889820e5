package experiments

import (
	"context"

	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dsks/internal/dataset"
	"dsks/internal/harness"
)

// ExtraThroughput is an additional experiment beyond the paper's figures:
// query throughput under concurrency. The buffer pools serialize page
// access internally; on a multi-core host the speedup column shows how far
// short of linear the shared-buffer design falls, and on a single core a
// flat curve certifies that the added goroutines cost (almost) nothing in
// contention overhead.
func ExtraThroughput(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	r := newResult("Extra: concurrent query throughput (NA, SIF)",
		"workers", "queries/sec", "speedup")
	ds, err := dataset.GeneratePreset(dataset.PresetNA, cfg.Scale, cfg.Seed)
	if err != nil {
		return nil, err
	}
	sys, err := harness.Build(ds, []harness.IndexKind{harness.KindSIF}, harness.Options{
		IOLatency: cfg.IOLatency,
	})
	if err != nil {
		return nil, err
	}
	ws, err := dataset.GenerateWorkload(ds.Objects, ds.VocabSize, dataset.WorkloadConfig{
		NumQueries: cfg.Queries, Keywords: 3, Seed: cfg.Seed + 91,
	})
	if err != nil {
		return nil, err
	}
	// Warm up once so every worker sees comparable buffer state.
	for _, wq := range ws {
		if _, err := sys.RunSK(context.Background(), harness.KindSIF, harness.SKQueryOf(wq)); err != nil {
			return nil, err
		}
	}

	const duration = 300 * time.Millisecond
	var base float64
	for _, workers := range []int{1, 2, 4, 8} {
		var done atomic.Int64
		var firstErr atomic.Value
		// Wall-clock deadline for the measurement window, not a data source.
		stop := time.Now().Add(duration)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				// Wall-clock check against the measurement deadline, not a data source.
				for i := w; time.Now().Before(stop); i++ {
					wq := ws[i%len(ws)]
					if _, err := sys.RunSK(context.Background(), harness.KindSIF, harness.SKQueryOf(wq)); err != nil {
						firstErr.Store(err)
						return
					}
					done.Add(1)
				}
			}(w)
		}
		wg.Wait()
		if err, ok := firstErr.Load().(error); ok && err != nil {
			return nil, err
		}
		qps := float64(done.Load()) / duration.Seconds()
		if workers == 1 {
			base = qps
		}
		speedup := 0.0
		if base > 0 {
			speedup = qps / base
		}
		r.addRow(fmt.Sprintf("%d", workers), f1(qps), fmt.Sprintf("%.2fx", speedup))
		r.series("qps").Append(float64(workers), qps)
	}
	r.Table.Fprint(cfg.Out)
	return r, nil
}
