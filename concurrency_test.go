package dsks_test

import (
	"context"
	"sync"
	"testing"

	"dsks"
)

// TestConcurrentQueries runs boolean and diversified queries from many
// goroutines against one DB. The buffer pools serialize page access
// internally; results must match the sequential baseline. Run with
// `go test -race` to exercise the synchronization.
func TestConcurrentQueries(t *testing.T) {
	ds, err := dsks.GeneratePreset(dsks.PresetSYN, 2000, 77)
	if err != nil {
		t.Fatal(err)
	}
	db, err := dsks.OpenDataset(ds, dsks.Options{Index: dsks.IndexSIF})
	if err != nil {
		t.Fatal(err)
	}
	ws, err := dsks.GenerateWorkload(ds.Objects, ds.VocabSize, dsks.WorkloadConfig{
		NumQueries: 12, Keywords: 2, Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Sequential baseline.
	want := make([][]dsks.Candidate, len(ws))
	for i, q := range ws {
		res, err := db.Query(context.Background(), dsks.SKQuery{Pos: q.Pos, Terms: q.Terms, DeltaMax: q.DeltaMax})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.Candidates
	}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for worker := 0; worker < 8; worker++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for rep := 0; rep < 4; rep++ {
				i := (worker + rep) % len(ws)
				q := ws[i]
				res, err := db.Query(context.Background(), dsks.SKQuery{Pos: q.Pos, Terms: q.Terms, DeltaMax: q.DeltaMax})
				if err != nil {
					errs <- err
					return
				}
				if len(res.Candidates) != len(want[i]) {
					t.Errorf("worker %d query %d: %d candidates, want %d",
						worker, i, len(res.Candidates), len(want[i]))
					return
				}
				// Diversified queries interleaved too.
				if _, err := db.Query(context.Background(), dsks.DivQuery{
					SKQuery: dsks.SKQuery{Pos: q.Pos, Terms: q.Terms, DeltaMax: q.DeltaMax},
					K:       4, Lambda: 0.8,
				}); err != nil {
					errs <- err
					return
				}
			}
		}(worker)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
