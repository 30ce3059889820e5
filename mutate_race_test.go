package dsks_test

import (
	"context"
	"path/filepath"
	"sync"
	"testing"

	"dsks"
)

// TestMutationsRacingSearches is the serving-layer interleaving: Insert
// and Remove racing one-shot diversified queries (and the other query
// families) from many goroutines. The database write latch must make
// every query observe the index either entirely before or entirely after
// each mutation — run with -race to exercise the synchronization. The
// table covers every index kind that supports mutation.
func TestMutationsRacingSearches(t *testing.T) {
	for _, tc := range []struct {
		name string
		kind dsks.IndexKind
	}{
		{"IF", dsks.IndexIF},
		{"SIF", dsks.IndexSIF},
		{"SIF-P", dsks.IndexSIFP},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Small synthetic graph with a handful of seeded objects.
			g, err := dsks.GenerateNetwork(dsks.NetworkConfig{Nodes: 30, EdgeFactor: 1.5, Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			col := dsks.NewCollection()
			const vocab = 8
			for e := 0; e < g.NumEdges(); e += 3 {
				col.Add(dsks.Position{Edge: dsks.EdgeID(e), Offset: 1},
					[]dsks.TermID{0, dsks.TermID(1 + e%(vocab-1))})
			}
			db, err := dsks.Open(g, col, vocab, dsks.Options{Index: tc.kind})
			if err != nil {
				t.Fatal(err)
			}

			query := dsks.DivQuery{
				SKQuery: dsks.SKQuery{
					Pos: dsks.Position{Edge: 0, Offset: 0}, Terms: []dsks.TermID{0}, DeltaMax: 1e9,
				},
				K: 4, Lambda: 0.7,
			}
			base, err := db.Query(context.Background(), query)
			if err != nil {
				t.Fatal(err)
			}
			if len(base.Candidates) == 0 {
				t.Fatal("seed query returned no candidates; the race would be vacuous")
			}

			const (
				searchers  = 4
				mutators   = 2
				iterations = 15
			)
			var wg sync.WaitGroup
			errs := make(chan error, searchers+mutators)

			for s := 0; s < searchers; s++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < iterations; i++ {
						res, err := db.Query(context.Background(), query)
						if err != nil {
							errs <- err
							return
						}
						// Mutators only add/remove term-0 objects, so the
						// candidate pool can only grow or shrink around the
						// seeded base; a torn read would surface as a race
						// report or a nonsensical result.
						if len(res.Candidates) == 0 {
							errs <- err
							return
						}
						// The boolean family shares the same latch.
						if _, err := db.Query(context.Background(), query.SKQuery); err != nil {
							errs <- err
							return
						}
					}
				}()
			}
			for m := 0; m < mutators; m++ {
				wg.Add(1)
				go func(m int) {
					defer wg.Done()
					edge := dsks.EdgeID(1 + m)
					for i := 0; i < iterations; i++ {
						id, err := db.Insert(dsks.Position{Edge: edge, Offset: 0.5},
							[]dsks.TermID{0, dsks.TermID(1 + m)})
						if err != nil {
							errs <- err
							return
						}
						if err := db.Remove(id); err != nil {
							errs <- err
							return
						}
					}
				}(m)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}

			// Every mutation committed: the commit clock saw all of them.
			if got, want := db.LSN(), uint64(mutators*iterations*2); got != want {
				t.Fatalf("LSN() = %d, want %d", got, want)
			}
			// The object set is back to the seed state.
			after, err := db.Query(context.Background(), query)
			if err != nil {
				t.Fatal(err)
			}
			if len(after.Candidates) != len(base.Candidates) {
				t.Fatalf("after the churn: %d candidates, want %d", len(after.Candidates), len(base.Candidates))
			}
		})
	}
}

// TestWALMutationsRacingSaveAndSearches adds the durability layer to the
// interleaving: Insert and Remove (each append-to-log + fsync-wait)
// racing SaveTo (snapshot + log checkpoint, with rotation and
// compaction) racing queries, under -race. Afterwards the snapshot plus
// the log tail must restore the exact final state.
func TestWALMutationsRacingSaveAndSearches(t *testing.T) {
	g, err := dsks.GenerateNetwork(dsks.NetworkConfig{Nodes: 30, EdgeFactor: 1.5, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	col := dsks.NewCollection()
	const vocab = 8
	for e := 0; e < g.NumEdges(); e += 3 {
		col.Add(dsks.Position{Edge: dsks.EdgeID(e), Offset: 1},
			[]dsks.TermID{0, dsks.TermID(1 + e%(vocab-1))})
	}
	tmp := t.TempDir()
	opts := dsks.Options{Index: dsks.IndexSIF, WALDir: filepath.Join(tmp, "wal")}
	db, err := dsks.Open(g, col, vocab, opts)
	if err != nil {
		t.Fatal(err)
	}
	snapDir := filepath.Join(tmp, "snap")

	query := dsks.SKQuery{Pos: dsks.Position{Edge: 0, Offset: 0}, Terms: []dsks.TermID{0}, DeltaMax: 1e9}
	const (
		searchers  = 2
		mutators   = 2
		savers     = 1
		iterations = 12
	)
	var wg sync.WaitGroup
	errs := make(chan error, searchers+mutators+savers)
	for s := 0; s < searchers; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iterations; i++ {
				if _, err := db.Query(context.Background(), query); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	for m := 0; m < mutators; m++ {
		wg.Add(1)
		go func(m int) {
			defer wg.Done()
			for i := 0; i < iterations; i++ {
				id, err := db.Insert(dsks.Position{Edge: dsks.EdgeID(1 + m), Offset: 0.5},
					[]dsks.TermID{0, dsks.TermID(1 + m)})
				if err != nil {
					errs <- err
					return
				}
				if err := db.Remove(id); err != nil {
					errs <- err
					return
				}
			}
		}(m)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iterations/2; i++ {
			if err := db.SaveTo(snapDir); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	if got, want := db.LSN(), uint64(mutators*iterations*2); got != want {
		t.Fatalf("LSN() = %d, want %d", got, want)
	}
	// A final save then restore: the churn must round-trip exactly.
	if err := db.SaveTo(snapDir); err != nil {
		t.Fatal(err)
	}
	want := db.LiveObjects()
	base, err := db.Query(context.Background(), query)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	back, err := dsks.OpenPath(snapDir, dsks.Options{WALDir: opts.WALDir})
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	if got := back.LiveObjects(); got != want {
		t.Fatalf("LiveObjects after restore = %d, want %d", got, want)
	}
	res, err := back.Query(context.Background(), query)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Candidates) != len(base.Candidates) {
		t.Fatalf("restored query: %d candidates, want %d", len(res.Candidates), len(base.Candidates))
	}
}
