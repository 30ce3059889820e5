package dsks_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"maps"
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
func saveTiny(t testing.TB) string {
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
func downgradeToV1(t testing.TB, dir string, edit func(map[string]any)) {
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

// TestOpenPathBadLandmarkCount: a landmark count past what the oracle
// takes, saved in meta.json, is a bad snapshot, not bad options of the
// caller's; the same count passed by the caller is bad options.
func TestOpenPathBadLandmarkCount(t *testing.T) {
	dir := saveTiny(t)
	downgradeToV1(t, dir, func(meta map[string]any) {
		meta["oracleLandmarks"] = 600
	})
	wantBadSnapshot(t, dir, "oracleLandmarks 600")
	if _, err := dsks.OpenPath(dir, dsks.Options{}); errors.Is(err, dsks.ErrBadOptions) {
		t.Fatalf("oracleLandmarks 600 in meta.json: err = %v, which blames the caller's options", err)
	}
	good := saveTiny(t)
	if _, err := dsks.OpenPath(good, dsks.Options{Oracle: true, Landmarks: 600}); !errors.Is(err, dsks.ErrBadOptions) || errors.Is(err, dsks.ErrBadSnapshot) {
		t.Fatalf("Landmarks 600 passed to OpenPath: err = %v, want ErrBadOptions alone", err)
	}
}

// TestOpenPathHostileTombstones: a snapshot whose manifest checks out but
// whose meta.json lists tombstones that go wrong only after live objects
// have been placed below them fails with ErrBadSnapshot, not a panic.
func TestOpenPathHostileTombstones(t *testing.T) {
	for _, tail := range [][2]int{{1, 1}, {0, 0}, {1, -1}} {
		dir := saveTiny(t)
		var meta map[string]any
		readJSON(t, filepath.Join(dir, "meta.json"), &meta)
		live := int(meta["allocated"].(float64))
		// Tombstones live+tail[0] and live+tail[1] in an ID space of
		// live+2: the first is valid where it stands, the second is not.
		meta["allocated"], meta["tombstones"] = live+2, []int{live + tail[0], live + tail[1]}
		raw, err := json.Marshal(meta)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "meta.json"), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		var man map[string]any
		readJSON(t, filepath.Join(dir, "manifest.json"), &man)
		man["files"].(map[string]any)["meta.json"] = map[string]any{
			"size": len(raw), "crc32c": crc32.Checksum(raw, crc32.MakeTable(crc32.Castagnoli)),
		}
		if raw, err = json.Marshal(man); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "manifest.json"), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		wantBadSnapshot(t, dir, fmt.Sprintf("tombstones %v", meta["tombstones"]))
	}
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, v); err != nil {
		t.Fatal(err)
	}
}

// FuzzOpenPathMeta opens a saved tiny snapshot in the format-1 layout,
// which has no manifest to verify meta.json against, under arbitrary
// meta.json bytes: OpenPath opens it or fails with ErrBadSnapshot, and
// never panics.
func FuzzOpenPathMeta(f *testing.F) {
	src := saveTiny(f)
	downgradeToV1(f, src, nil)
	entries, err := os.ReadDir(src)
	if err != nil {
		f.Fatal(err)
	}
	files := map[string][]byte{}
	for _, e := range entries {
		if files[e.Name()], err = os.ReadFile(filepath.Join(src, e.Name())); err != nil {
			f.Fatal(err)
		}
	}
	var meta map[string]any
	if err := json.Unmarshal(files["meta.json"], &meta); err != nil {
		f.Fatal(err)
	}
	f.Add(files["meta.json"])
	for _, kv := range []struct {
		key string
		v   any
	}{
		{"oracleLandmarks", 600}, {"bufferFraction", -1}, {"partitionCuts", -1}, {"index", "IR"},
		{"format", 2}, {"vocabSize", 1 << 40}, {"oracleSeed", -1}, {"allocated", 7},
	} {
		edited := maps.Clone(meta)
		edited[kv.key] = kv.v
		raw, err := json.Marshal(edited)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	for _, raw := range []string{"", "null", "[]", "{}", `{"format":1}`, `{"format":1,"bufferFraction":1e308}`} {
		f.Add([]byte(raw))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		dir := filepath.Join(t.TempDir(), "snap")
		if err := os.Mkdir(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for name, b := range files {
			if name == "meta.json" {
				b = raw
			}
			if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		db, err := dsks.OpenPath(dir, dsks.Options{})
		if err != nil {
			if !errors.Is(err, dsks.ErrBadSnapshot) {
				t.Fatalf("meta.json %q: err = %v, want ErrBadSnapshot", raw, err)
			}
			return
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	})
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
		"search": func(d *dsks.DB) (dsks.Result, error) { return d.Query(ctx, sk) },
		"diversified": func(d *dsks.DB) (dsks.Result, error) {
			return d.Query(ctx, dsks.DivQuery{SKQuery: sk, K: 2, Lambda: 0.3})
		},
		"knn": func(d *dsks.DB) (dsks.Result, error) {
			return d.Query(ctx, dsks.KNNQuery{Pos: origin, Terms: sk.Terms, K: 2})
		},
		"ranked": func(d *dsks.DB) (dsks.Result, error) {
			return d.Query(ctx, dsks.RankedQuery{Pos: origin, Terms: terms, K: 3, Alpha: 0.5, DeltaMax: 500})
		},
		"collective": func(d *dsks.DB) (dsks.Result, error) {
			return d.Query(ctx, dsks.CollectiveQuery{Pos: origin, Terms: terms, DeltaMax: 500})
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
