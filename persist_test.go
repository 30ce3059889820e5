package dsks_test

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"testing"

	"dsks"
)

func TestSaveOpenRoundTrip(t *testing.T) {
	ds, err := dsks.GeneratePreset(dsks.PresetSYN, 2000, 111)
	if err != nil {
		t.Fatal(err)
	}
	db, err := dsks.OpenDataset(ds, dsks.Options{Index: dsks.IndexSIF})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := db.SaveTo(dir); err != nil {
		t.Fatal(err)
	}
	back, err := dsks.OpenPath(dir, dsks.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ws, err := dsks.GenerateWorkload(ds.Objects, ds.VocabSize, dsks.WorkloadConfig{
		NumQueries: 10, Keywords: 2, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Object IDs are reassigned on load; compare candidate counts and
	// distances.
	for _, q := range ws {
		skq := dsks.SKQuery{Pos: q.Pos, Terms: q.Terms, DeltaMax: q.DeltaMax}
		a, err := db.Query(context.Background(), skq)
		if err != nil {
			t.Fatal(err)
		}
		b, err := back.Query(context.Background(), skq)
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Candidates) != len(b.Candidates) {
			t.Fatalf("reloaded DB found %d candidates, original %d",
				len(b.Candidates), len(a.Candidates))
		}
		for i := range a.Candidates {
			if math.Abs(a.Candidates[i].Dist-b.Candidates[i].Dist) > 1e-9 {
				t.Fatalf("candidate %d distance %v vs %v",
					i, a.Candidates[i].Dist, b.Candidates[i].Dist)
			}
		}
	}
}

// TestOpenPathKeepsPersistedConfiguration: a database saved with a
// non-default cut budget and buffer fraction reopens, with zero options,
// as the same database — the same index, the same size, and the same
// disk reads for the same queries from cold buffers. The fraction is large
// enough for the pools to outgrow their 16-frame floor on this network.
func TestOpenPathKeepsPersistedConfiguration(t *testing.T) {
	ds, err := dsks.GeneratePreset(dsks.PresetSYN, 2000, 111)
	if err != nil {
		t.Fatal(err)
	}
	db, err := dsks.OpenDataset(ds, dsks.Options{Index: dsks.IndexSIFP, PartitionCuts: 8, BufferFraction: 4})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := db.SaveTo(dir); err != nil {
		t.Fatal(err)
	}
	back, err := dsks.OpenPath(dir, dsks.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a, b := db.IndexSizeBytes(), back.IndexSizeBytes(); a != b {
		t.Errorf("index size %d after OpenPath, %d before SaveTo", b, a)
	}
	ws, err := dsks.GenerateWorkload(ds.Objects, ds.VocabSize, dsks.WorkloadConfig{
		NumQueries: 20, Keywords: 1, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	reads := func(d *dsks.DB) (n int64) {
		if err := d.ResetIO(); err != nil {
			t.Fatal(err)
		}
		for _, q := range ws {
			res, err := d.Query(context.Background(), dsks.SKQuery{Pos: q.Pos, Terms: q.Terms, DeltaMax: q.DeltaMax})
			if err != nil {
				t.Fatal(err)
			}
			n += res.DiskReads
		}
		return n
	}
	if a, b := reads(db), reads(back); a != b {
		t.Errorf("%d disk reads after OpenPath, %d before SaveTo", b, a)
	}
}

// TestOpenPathMerge: each saved option survives a reopen with zero
// options, and a non-zero caller value wins. Oracle: true alone keeps the
// saved landmark count and seed, so the snapshot's oracle file loads
// (no build time) instead of being rebuilt; a caller's landmark count or
// seed rebuilds it.
func TestOpenPathMerge(t *testing.T) {
	ds, err := dsks.GeneratePreset(dsks.PresetSYN, 2000, 111)
	if err != nil {
		t.Fatal(err)
	}
	saved := dsks.Options{Index: dsks.IndexIF, BufferFraction: 0.05, PartitionCuts: 5, Oracle: true, Landmarks: 8, OracleSeed: 7}
	db, err := dsks.OpenDataset(ds, saved)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := db.SaveTo(dir); err != nil {
		t.Fatal(err)
	}
	db.Close()

	with := func(edit func(*dsks.Options)) dsks.Options {
		o := saved
		edit(&o)
		return o
	}
	for _, tc := range []struct {
		name   string
		opts   dsks.Options
		want   dsks.Options
		loaded bool // the saved oracle file served, no rebuild
	}{
		{"zero options", dsks.Options{}, saved, true},
		{"Oracle alone", dsks.Options{Oracle: true}, saved, true},
		{"Index", dsks.Options{Index: dsks.IndexSIFP}, with(func(o *dsks.Options) { o.Index = dsks.IndexSIFP }), true},
		{"BufferFraction", dsks.Options{BufferFraction: 0.5}, with(func(o *dsks.Options) { o.BufferFraction = 0.5 }), true},
		{"PartitionCuts", dsks.Options{PartitionCuts: 2}, with(func(o *dsks.Options) { o.PartitionCuts = 2 }), true},
		{"Landmarks", dsks.Options{Landmarks: 4}, with(func(o *dsks.Options) { o.Landmarks = 4 }), false},
		{"OracleSeed", dsks.Options{OracleSeed: 3}, with(func(o *dsks.Options) { o.OracleSeed = 3 }), false},
	} {
		back, err := dsks.OpenPath(dir, tc.opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := back.Options(); got != tc.want {
			t.Errorf("%s: reopened with %+v, want %+v", tc.name, got, tc.want)
		}
		if o := back.DistanceOracle(); o == nil || o.NumLandmarks() != tc.want.Landmarks {
			t.Errorf("%s: oracle %v, want %d landmarks", tc.name, o, tc.want.Landmarks)
		}
		if loaded := back.SetupTimes().Oracle == 0; loaded != tc.loaded {
			t.Errorf("%s: oracle loaded from the snapshot = %v, want %v", tc.name, loaded, tc.loaded)
		}
		back.Close()
	}
}

func TestSaveExcludesRemoved(t *testing.T) {
	db, vocab, origin, _ := buildTinyCity(t)
	terms, _ := vocab.LookupAll([]string{"pizza"})
	before, err := db.Query(context.Background(), dsks.SKQuery{Pos: origin, Terms: terms, DeltaMax: 500})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Remove(before.Candidates[0].Ref.ID); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := db.SaveTo(dir); err != nil {
		t.Fatal(err)
	}
	back, err := dsks.OpenPath(dir, dsks.Options{})
	if err != nil {
		t.Fatal(err)
	}
	after, err := back.Query(context.Background(), dsks.SKQuery{Pos: origin, Terms: terms, DeltaMax: 500})
	if err != nil {
		t.Fatal(err)
	}
	if len(after.Candidates) != len(before.Candidates)-1 {
		t.Fatalf("reloaded DB has %d candidates, want %d",
			len(after.Candidates), len(before.Candidates)-1)
	}
}

func TestOpenPathIndexOverride(t *testing.T) {
	db, _, _, _ := buildTinyCity(t)
	dir := t.TempDir()
	if err := db.SaveTo(dir); err != nil {
		t.Fatal(err)
	}
	back, err := dsks.OpenPath(dir, dsks.Options{Index: dsks.IndexIF})
	if err != nil {
		t.Fatal(err)
	}
	_ = back
}

func TestOpenPathRejectsGarbage(t *testing.T) {
	if _, err := dsks.OpenPath(filepath.Join(t.TempDir(), "nope"), dsks.Options{}); err == nil {
		t.Error("missing directory accepted")
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "meta.json"), []byte(`{"format": 99}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := dsks.OpenPath(dir, dsks.Options{}); err == nil {
		t.Error("unknown format accepted")
	}
}

func TestVocabularyPersistence(t *testing.T) {
	v := dsks.NewVocabulary()
	ids := v.InternAll([]string{"pizza", "sushi", "café latte"})
	dir := t.TempDir()
	if err := dsks.SaveVocabulary(dir, v); err != nil {
		t.Fatal(err)
	}
	back, err := dsks.LoadVocabulary(dir)
	if err != nil {
		t.Fatal(err)
	}
	if back.Size() != v.Size() {
		t.Fatalf("size %d, want %d", back.Size(), v.Size())
	}
	got, err := back.LookupAll([]string{"pizza", "sushi", "café latte"})
	if err != nil {
		t.Fatal(err)
	}
	for i := range ids {
		if got[i] != ids[i] {
			t.Fatalf("term %d id %d, want %d", i, got[i], ids[i])
		}
	}
	if _, err := dsks.LoadVocabulary(t.TempDir()); err == nil {
		t.Error("missing vocabulary accepted")
	}
}
