package dsks_test

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"dsks"
)

// The ALT landmark oracle is an accelerator, not an approximation: its
// triangle bounds only ever short-circuit work whose outcome they prove,
// so every query must return bit-identical results with the oracle on
// and off, and a damaged oracle file must degrade to a rebuild — never
// a crash, never a silently different answer.

// oraclePair opens the same generated dataset twice: once plain, once
// with the landmark oracle.
func oraclePair(t *testing.T, preset dsks.Preset, scale int) (*dsks.DB, *dsks.DB, *dsks.Dataset) {
	t.Helper()
	base := openPresetDB(t, preset, scale, dsks.Options{Index: dsks.IndexSIF})
	assisted := openPresetDB(t, preset, scale, dsks.Options{
		Index: dsks.IndexSIF, Oracle: true, Landmarks: 8, OracleSeed: 7,
	})
	ds, err := dsks.GeneratePreset(preset, scale, 42)
	if err != nil {
		t.Fatal(err)
	}
	return base, assisted, ds
}

func openPresetDB(t *testing.T, preset dsks.Preset, scale int, opts dsks.Options) *dsks.DB {
	t.Helper()
	ds, err := dsks.GeneratePreset(preset, scale, 42)
	if err != nil {
		t.Fatal(err)
	}
	db, err := dsks.OpenDataset(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = db.Close() })
	dsks.CheckNoPins(t, db)
	return db
}

// requireSameResult asserts the query payloads are bit-identical: the
// oracle path may skip work, but never change an answer. Stats and
// timing legitimately differ and are not compared.
func requireSameResult(t *testing.T, tag string, want, got dsks.Result) {
	t.Helper()
	if !reflect.DeepEqual(want.Candidates, got.Candidates) {
		t.Fatalf("%s: candidates diverge with the oracle on\nwant %v\ngot  %v",
			tag, want.Candidates, got.Candidates)
	}
	if want.F != got.F {
		t.Fatalf("%s: objective %v with the oracle on, want %v (bit-identical)", tag, got.F, want.F)
	}
	if !reflect.DeepEqual(want.Ranked, got.Ranked) {
		t.Fatalf("%s: ranked results diverge with the oracle on\nwant %v\ngot  %v",
			tag, want.Ranked, got.Ranked)
	}
	if !reflect.DeepEqual(want.Collective, got.Collective) {
		t.Fatalf("%s: collective group diverges with the oracle on\nwant %+v\ngot  %+v",
			tag, want.Collective, got.Collective)
	}
}

// checkOracleEquivalence replays one workload against both databases and
// requires bit-identical answers from every query kind.
func checkOracleEquivalence(t *testing.T, phase string, base, assisted *dsks.DB, ws []dsks.WorkloadQuery) {
	t.Helper()
	ctx := context.Background()
	for qi, w := range ws {
		skq := dsks.SKQuery{Pos: w.Pos, Terms: w.Terms, DeltaMax: w.DeltaMax}
		dq := dsks.DivQuery{SKQuery: skq, K: 4, Lambda: 0.5}

		want, err := base.Query(ctx, dq)
		if err != nil {
			t.Fatal(err)
		}
		got, err := assisted.Query(ctx, dq)
		if err != nil {
			t.Fatal(err)
		}
		requireSameResult(t, phase+": diversified "+itoa(qi), want, got)

		want, err = base.Query(ctx, skq)
		if err != nil {
			t.Fatal(err)
		}
		got, err = assisted.Query(ctx, skq)
		if err != nil {
			t.Fatal(err)
		}
		requireSameResult(t, phase+": search "+itoa(qi), want, got)

		knn := dsks.KNNQuery{Pos: w.Pos, Terms: w.Terms, K: 5}
		want, err = base.Query(ctx, knn)
		if err != nil {
			t.Fatal(err)
		}
		got, err = assisted.Query(ctx, knn)
		if err != nil {
			t.Fatal(err)
		}
		requireSameResult(t, phase+": knn "+itoa(qi), want, got)

		rq := dsks.RankedQuery{Pos: w.Pos, Terms: w.Terms, K: 5, Alpha: 0.5, DeltaMax: w.DeltaMax}
		want, err = base.Query(ctx, rq)
		if err != nil {
			t.Fatal(err)
		}
		got, err = assisted.Query(ctx, rq)
		if err != nil {
			t.Fatal(err)
		}
		requireSameResult(t, phase+": ranked "+itoa(qi), want, got)

		cq := dsks.CollectiveQuery{Pos: w.Pos, Terms: w.Terms, DeltaMax: w.DeltaMax}
		want, err = base.Query(ctx, cq)
		if err != nil {
			t.Fatal(err)
		}
		got, err = assisted.Query(ctx, cq)
		if err != nil {
			t.Fatal(err)
		}
		requireSameResult(t, phase+": collective "+itoa(qi), want, got)
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b [8]byte
	n := len(b)
	for i > 0 {
		n--
		b[n] = byte('0' + i%10)
		i /= 10
	}
	return string(b[n:])
}

// TestOracleEquivalence is the oracle's correctness property test: the
// same query mix with the oracle on and off must produce bit-identical
// diversified, boolean, kNN, ranked and collective results, on the
// synthetic presets, before and after mutations. (SEQ's side of the
// property is internal/harness's TestOracleEquivalence.)
func TestOracleEquivalence(t *testing.T) {
	for _, tc := range []struct {
		preset dsks.Preset
		scale  int
	}{
		{dsks.PresetSYN, 1000},
		{dsks.PresetNA, 500},
	} {
		t.Run(string(tc.preset), func(t *testing.T) {
			base, assisted, ds := oraclePair(t, tc.preset, tc.scale)
			if assisted.DistanceOracle() == nil {
				t.Fatal("assisted database has no oracle")
			}
			ws, err := dsks.GenerateWorkload(ds.Objects, ds.VocabSize, dsks.WorkloadConfig{
				NumQueries: 10, Keywords: 2, Seed: 11,
			})
			if err != nil {
				t.Fatal(err)
			}

			checkOracleEquivalence(t, "initial", base, assisted, ws)

			// Mutations change the object set but not the road network the
			// oracle indexes, so equivalence must survive them untouched.
			ws2, err := dsks.GenerateWorkload(ds.Objects, ds.VocabSize, dsks.WorkloadConfig{
				NumQueries: 6, Keywords: 2, Seed: 99,
			})
			if err != nil {
				t.Fatal(err)
			}
			for i, w := range ws2 {
				bid, err := base.Insert(w.Pos, w.Terms)
				if err != nil {
					t.Fatal(err)
				}
				aid, err := assisted.Insert(w.Pos, w.Terms)
				if err != nil {
					t.Fatal(err)
				}
				if bid != aid {
					t.Fatalf("insert %d: assisted DB assigned ID %d, baseline %d", i, aid, bid)
				}
			}
			for _, id := range []dsks.ObjectID{1, 5} {
				if err := base.Remove(id); err != nil {
					t.Fatal(err)
				}
				if err := assisted.Remove(id); err != nil {
					t.Fatal(err)
				}
			}

			checkOracleEquivalence(t, "after mutations", base, assisted, ws)
		})
	}
}

// saveOracleSnap saves an oracle-enabled preset database and returns the
// snapshot directory plus a workload to replay against reopens.
func saveOracleSnap(t *testing.T) (string, []dsks.WorkloadQuery) {
	t.Helper()
	ds, err := dsks.GeneratePreset(dsks.PresetSYN, 1000, 42)
	if err != nil {
		t.Fatal(err)
	}
	ws, err := dsks.GenerateWorkload(ds.Objects, ds.VocabSize, dsks.WorkloadConfig{
		NumQueries: 5, Keywords: 2, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	db, err := dsks.OpenDataset(ds, dsks.Options{
		Index: dsks.IndexSIF, Oracle: true, Landmarks: 8, OracleSeed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	dir := filepath.Join(t.TempDir(), "snap")
	if err := db.SaveTo(dir); err != nil {
		t.Fatal(err)
	}
	return dir, ws
}

// divAnswers replays the workload's diversified queries and returns the
// payloads, for comparing a damaged-then-rebuilt reopen to a clean one.
func divAnswers(t *testing.T, db *dsks.DB, ws []dsks.WorkloadQuery) []dsks.Result {
	t.Helper()
	out := make([]dsks.Result, len(ws))
	for i, w := range ws {
		res, err := db.Query(context.Background(), dsks.DivQuery{
			SKQuery: dsks.SKQuery{Pos: w.Pos, Terms: w.Terms, DeltaMax: w.DeltaMax},
			K:       4, Lambda: 0.5,
		})
		if err != nil {
			t.Fatal(err)
		}
		out[i] = res
	}
	return out
}

// reopenAfterDamage corrupts the snapshot's oracle file with damage and
// asserts OpenPath still succeeds — the oracle is rebuilt from the graph
// — and serves the same answers as an undamaged reopen.
func reopenAfterDamage(t *testing.T, scenario string, damage func(t *testing.T, path string)) {
	t.Helper()
	dir, ws := saveOracleSnap(t)

	clean, err := dsks.OpenPath(dir, dsks.Options{})
	if err != nil {
		t.Fatalf("%s: clean reopen failed: %v", scenario, err)
	}
	if clean.DistanceOracle() == nil {
		t.Fatalf("%s: clean reopen lost the oracle", scenario)
	}
	want := divAnswers(t, clean, ws)
	if err := clean.Close(); err != nil {
		t.Fatal(err)
	}

	damage(t, filepath.Join(dir, "oracle"))

	db, err := dsks.OpenPath(dir, dsks.Options{})
	if err != nil {
		t.Fatalf("%s: reopen with a damaged oracle must rebuild, got %v", scenario, err)
	}
	defer db.Close()
	if db.DistanceOracle() == nil {
		t.Fatalf("%s: damaged oracle was not rebuilt", scenario)
	}
	got := divAnswers(t, db, ws)
	for i := range want {
		requireSameResult(t, scenario+": query "+itoa(i), want[i], got[i])
	}
}

func TestOpenPathOracleTruncated(t *testing.T) {
	reopenAfterDamage(t, "truncated oracle", func(t *testing.T, path string) {
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(path, st.Size()/2); err != nil {
			t.Fatal(err)
		}
	})
}

func TestOpenPathOracleBitFlipped(t *testing.T) {
	reopenAfterDamage(t, "bit-flipped oracle", func(t *testing.T, path string) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0x40
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	})
}

func TestOpenPathOracleWrongLandmarkCount(t *testing.T) {
	reopenAfterDamage(t, "wrong landmark count", func(t *testing.T, path string) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// The landmark count is the third little-endian u32 of the header;
		// doubling it makes the payload size and the meta count disagree.
		data[8] <<= 1
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	})
}

func TestOpenPathOracleMissing(t *testing.T) {
	reopenAfterDamage(t, "deleted oracle", func(t *testing.T, path string) {
		if err := os.Remove(path); err != nil {
			t.Fatal(err)
		}
	})
}

// TestOpenPathOracleOffByDefault: a snapshot saved without an oracle
// must not grow one on reopen, and reopening an oracle snapshot with
// explicit oracle options must honor them.
func TestOpenPathOracleOffByDefault(t *testing.T) {
	dir := saveTiny(t)
	db, err := dsks.OpenPath(dir, dsks.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if db.DistanceOracle() != nil {
		t.Fatal("snapshot saved without an oracle reopened with one")
	}
}
