package dsks_test

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dsks"
)

// Hostile-input coverage for OpenPath: every torn, truncated, corrupted
// or mismatched snapshot must fail with an error matching ErrBadSnapshot
// — never a panic, never a silently wrong database.

// saveTiny saves a small database into a fresh directory and returns it.
func saveTiny(t *testing.T) string {
	t.Helper()
	db, _, _, _ := buildTinyCity(t)
	dir := filepath.Join(t.TempDir(), "snap")
	if err := db.SaveTo(dir); err != nil {
		t.Fatal(err)
	}
	return dir
}

func wantBadSnapshot(t *testing.T, dir, scenario string) {
	t.Helper()
	_, err := dsks.OpenPath(dir, dsks.Options{})
	if err == nil {
		t.Fatalf("%s: accepted", scenario)
	}
	if !errors.Is(err, dsks.ErrBadSnapshot) {
		t.Fatalf("%s: err = %v, want ErrBadSnapshot", scenario, err)
	}
}

func TestOpenPathTruncatedGraph(t *testing.T) {
	dir := saveTiny(t)
	path := filepath.Join(dir, "graph")
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, st.Size()/2); err != nil {
		t.Fatal(err)
	}
	wantBadSnapshot(t, dir, "truncated graph")
}

func TestOpenPathBitFlippedObjects(t *testing.T) {
	dir := saveTiny(t)
	path := filepath.Join(dir, "objects")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	wantBadSnapshot(t, dir, "bit-flipped objects")
}

func TestOpenPathMissingManifest(t *testing.T) {
	dir := saveTiny(t)
	if err := os.Remove(filepath.Join(dir, "manifest.json")); err != nil {
		t.Fatal(err)
	}
	wantBadSnapshot(t, dir, "format-2 snapshot without manifest")
}

func TestOpenPathMissingFiles(t *testing.T) {
	for _, name := range []string{"graph", "objects"} {
		dir := saveTiny(t)
		if err := os.Remove(filepath.Join(dir, name)); err != nil {
			t.Fatal(err)
		}
		wantBadSnapshot(t, dir, "missing "+name)
	}
}

func TestOpenPathEmptyDir(t *testing.T) {
	wantBadSnapshot(t, t.TempDir(), "empty directory")
}

func TestOpenPathUnknownFormat(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "meta.json"), []byte(`{"format": 99}`), 0o644); err != nil {
		t.Fatal(err)
	}
	wantBadSnapshot(t, dir, "unknown format version")
}

func TestOpenPathUndecodableMeta(t *testing.T) {
	dir := saveTiny(t)
	if err := os.WriteFile(filepath.Join(dir, "meta.json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	wantBadSnapshot(t, dir, "undecodable meta.json")
}

// downgradeToV1 rewrites a saved snapshot as the legacy format-1 layout
// (no manifest), applying edit to the decoded meta first.
func downgradeToV1(t *testing.T, dir string, edit func(map[string]any)) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, "meta.json"))
	if err != nil {
		t.Fatal(err)
	}
	var meta map[string]any
	if err := json.Unmarshal(raw, &meta); err != nil {
		t.Fatal(err)
	}
	meta["format"] = 1
	if edit != nil {
		edit(meta)
	}
	out, err := json.Marshal(meta)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "meta.json"), out, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, "manifest.json")); err != nil {
		t.Fatal(err)
	}
}

func TestOpenPathReadsLegacyV1(t *testing.T) {
	dir := saveTiny(t)
	downgradeToV1(t, dir, nil)
	if _, err := dsks.OpenPath(dir, dsks.Options{}); err != nil {
		t.Fatalf("legacy v1 snapshot rejected: %v", err)
	}
}

// TestOpenPathLegacyUnreadableFiles: a format-1 snapshot has no manifest
// to catch a missing or damaged file first, so the parse itself must
// report ErrBadSnapshot.
func TestOpenPathLegacyUnreadableFiles(t *testing.T) {
	for name, damage := range map[string]func(dir string) error{
		"missing graph": func(dir string) error { return os.Remove(filepath.Join(dir, "graph")) },
		"corrupt objects": func(dir string) error {
			return os.WriteFile(filepath.Join(dir, "objects"), []byte("not an objects file"), 0o644)
		},
	} {
		dir := saveTiny(t)
		downgradeToV1(t, dir, nil)
		if err := damage(dir); err != nil {
			t.Fatal(err)
		}
		wantBadSnapshot(t, dir, "format-1 snapshot with "+name)
	}
}

func TestOpenPathVocabMismatch(t *testing.T) {
	dir := saveTiny(t)
	downgradeToV1(t, dir, func(meta map[string]any) {
		meta["vocabSize"] = 99999
	})
	wantBadSnapshot(t, dir, "vocabulary size mismatch")
}

func TestOpenPathUnknownIndexKind(t *testing.T) {
	dir := saveTiny(t)
	downgradeToV1(t, dir, func(meta map[string]any) {
		meta["index"] = "B-TREE-OF-DOOM"
	})
	wantBadSnapshot(t, dir, "unknown index kind")
}

// TestOpenPathNegativeConfiguration: a negative persisted buffer fraction
// or cut budget is a damaged meta.json, not a configuration to restore.
func TestOpenPathNegativeConfiguration(t *testing.T) {
	for _, key := range []string{"bufferFraction", "partitionCuts"} {
		dir := saveTiny(t)
		downgradeToV1(t, dir, func(meta map[string]any) {
			meta[key] = -1
		})
		wantBadSnapshot(t, dir, "negative "+key)
	}
}

// TestOpenPathIRSnapshot: a snapshot whose meta.json names IR, a kind the
// database no longer builds, does not open as saved; since every open
// rebuilds the index, it opens with the kind the caller names and answers
// like a fresh database of that kind.
func TestOpenPathIRSnapshot(t *testing.T) {
	dir := saveTiny(t)
	downgradeToV1(t, dir, func(meta map[string]any) {
		meta["index"] = "IR"
	})
	if _, err := dsks.OpenPath(dir, dsks.Options{}); !errors.Is(err, dsks.ErrBadSnapshot) || !strings.Contains(err.Error(), `"IR"`) {
		t.Fatalf("IR snapshot with no Options.Index: err = %v, want ErrBadSnapshot naming IR", err)
	}
	db, err := dsks.OpenPath(dir, dsks.Options{Index: dsks.IndexSIF})
	if err != nil {
		t.Fatalf("IR snapshot with Options.Index SIF: %v", err)
	}
	fresh, vocab, origin, _ := buildTinyCityWith(t, dsks.Options{Index: dsks.IndexSIF})
	if db.IndexSizeBytes() != fresh.IndexSizeBytes() {
		t.Errorf("reopened index is %d bytes, a fresh SIF index %d", db.IndexSizeBytes(), fresh.IndexSizeBytes())
	}
	terms, err := vocab.LookupAll([]string{"pizza", "coffee"})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	sk := dsks.SKQuery{Pos: origin, Terms: terms[:1], DeltaMax: 500}
	for name, run := range map[string]func(*dsks.DB) (dsks.Result, error){
		"search": func(d *dsks.DB) (dsks.Result, error) { return d.Search(ctx, sk) },
		"diversified": func(d *dsks.DB) (dsks.Result, error) {
			return d.SearchDiversified(ctx, dsks.DivQuery{SKQuery: sk, K: 2, Lambda: 0.3})
		},
		"knn": func(d *dsks.DB) (dsks.Result, error) {
			return d.SearchKNN(ctx, dsks.KNNQuery{Pos: origin, Terms: sk.Terms, K: 2})
		},
		"ranked": func(d *dsks.DB) (dsks.Result, error) {
			return d.SearchRanked(ctx, dsks.RankedQuery{Pos: origin, Terms: terms, K: 3, Alpha: 0.5, DeltaMax: 500})
		},
		"collective": func(d *dsks.DB) (dsks.Result, error) {
			return d.SearchCollective(ctx, dsks.CollectiveQuery{Pos: origin, Terms: terms, DeltaMax: 500})
		},
	} {
		want, err := run(fresh)
		if err != nil {
			t.Fatalf("%s on the fresh database: %v", name, err)
		}
		got, err := run(db)
		if err != nil {
			t.Fatalf("%s on the reopened database: %v", name, err)
		}
		if !reflect.DeepEqual(got.Candidates, want.Candidates) || got.F != want.F ||
			!reflect.DeepEqual(got.Ranked, want.Ranked) || !reflect.DeepEqual(got.Collective, want.Collective) {
			t.Errorf("%s: the reopened database answers %+v, a fresh one %+v", name, got, want)
		}
	}
}
