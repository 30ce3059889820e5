package dsks_test

import (
	"context"
	"reflect"
	"testing"

	"dsks"
	"dsks/internal/experiments/baselines"
	"dsks/internal/harness"
	"dsks/internal/sig"
)

// TestEngineMatchesHarness proves the database and the experiments harness
// are two clients of one engine: the same seeded dataset, SIF with the
// oracle on, opened once as a DB and once through the harness with the
// served options (harness.Build itself keeps the paper's query order), has
// the same index footprint and — from a cold start, over a seeded workload
// of all five query families — returns identical answers at identical
// cost, disk reads included. Page layout, build order and pool sizing are
// therefore the same on both paths.
func TestEngineMatchesHarness(t *testing.T) {
	ds, err := dsks.GeneratePreset(dsks.PresetSYN, 2000, 11)
	if err != nil {
		t.Fatal(err)
	}
	db, err := dsks.OpenDataset(ds, dsks.Options{Index: dsks.IndexSIF, Oracle: true, OracleSeed: 3})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := harness.Build(ds, nil, harness.Options{Oracle: true, OracleSeed: 3})
	if err != nil {
		t.Fatal(err)
	}
	served := func(so *sig.Options) { so.SelectivityOrder = true }
	if err := sys.Attach(harness.KindSIF, baselines.Variant(harness.KindSIF, ds.Objects, ds.VocabSize, served)); err != nil {
		t.Fatal(err)
	}
	if got, want := db.IndexSizeBytes(), sys.IndexSize[harness.KindSIF]; got != want {
		t.Fatalf("index size: DB %d bytes, harness %d", got, want)
	}
	ws, err := dsks.GenerateWorkload(ds.Objects, ds.VocabSize, dsks.WorkloadConfig{
		NumQueries: 50, Keywords: 2, DeltaMaxPerKeyword: 800, Seed: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.ResetIO(); err != nil {
		t.Fatal(err)
	}
	if err := sys.ResetIO(); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const kind = harness.KindSIF
	for i, w := range ws {
		skq := dsks.SKQuery{Pos: w.Pos, Terms: w.Terms, DeltaMax: w.DeltaMax}
		var got, want dsks.Result
		var gotErr, wantErr error
		switch i % 5 {
		case 0:
			got, gotErr = db.Query(ctx, skq)
			want, wantErr = sys.RunSK(ctx, kind, skq)
		case 1:
			q := dsks.DivQuery{SKQuery: skq, K: 4, Lambda: 0.8}
			got, gotErr = db.Query(ctx, q)
			want, wantErr = sys.RunDiv(ctx, kind, harness.AlgoCOM, q)
		case 2:
			q := dsks.KNNQuery{Pos: w.Pos, Terms: w.Terms, K: 4, MaxDist: w.DeltaMax}
			got, gotErr = db.Query(ctx, q)
			want, wantErr = sys.RunKNN(ctx, kind, q)
		case 3:
			q := dsks.RankedQuery{Pos: w.Pos, Terms: w.Terms, K: 4, Alpha: 0.5, DeltaMax: w.DeltaMax}
			got, gotErr = db.Query(ctx, q)
			want, wantErr = sys.RunRanked(ctx, kind, q)
		case 4:
			q := dsks.CollectiveQuery{Pos: w.Pos, Terms: w.Terms, DeltaMax: w.DeltaMax}
			got, gotErr = db.Query(ctx, q)
			want, wantErr = sys.RunCollective(ctx, kind, q)
		}
		if gotErr != nil || wantErr != nil {
			t.Fatalf("query %d: DB err %v, harness err %v", i, gotErr, wantErr)
		}
		// Wall-clock fields aside, the two envelopes must be equal.
		got.Elapsed, got.Trace, want.Elapsed, want.Trace = 0, dsks.Trace{}, 0, dsks.Trace{}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("query %d (family %d): DB and harness disagree\n DB:      %+v\n harness: %+v", i, i%5, got, want)
		}
	}
}
