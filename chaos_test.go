package dsks

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"dsks/internal/fault"
)

// chaos_test exercises the robustness machinery end to end from inside
// the package: SaveTo is crashed at every commit point and the snapshot
// must stay loadable, and injected storage faults must surface as typed
// errors (or be retried away) without ever corrupting query results.

// setFaults arms a fault campaign on every page store and the WAL of db.
func setFaults(t testing.TB, db *DB, cfg fault.Config) {
	t.Helper()
	in, err := fault.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	db.SetInjector(in)
}

// clearFaults disarms fault injection on db.
func clearFaults(db *DB) { db.SetInjector(nil) }

// newChaosDB builds a small in-memory database with a handful of objects.
func newChaosDB(t *testing.T, opts Options) (*DB, *Vocabulary, Position) {
	t.Helper()
	g := NewGraph()
	var nodes []NodeID
	for i := 0; i < 4; i++ {
		nodes = append(nodes, g.AddNode(Point{X: float64(i) * 100, Y: 0}))
	}
	var edges []EdgeID
	for i := 0; i+1 < len(nodes); i++ {
		e, err := g.AddEdge(nodes[i], nodes[i+1], 100)
		if err != nil {
			t.Fatal(err)
		}
		edges = append(edges, e)
	}
	g.Freeze()

	vocab := NewVocabulary()
	objects := NewCollection()
	words := [][]string{
		{"pizza", "wine"}, {"pizza"}, {"sushi", "wine"}, {"pizza", "sushi"},
	}
	for i, w := range words {
		objects.Add(Position{Edge: edges[i%len(edges)], Offset: 25}, vocab.InternAll(w))
	}
	db, err := Open(g, objects, vocab.Size(), opts)
	if err != nil {
		t.Fatal(err)
	}
	CheckNoPins(t, db)
	return db, vocab, Position{Edge: edges[0], Offset: 0}
}

func chaosQuery(t *testing.T, db *DB, vocab *Vocabulary, origin Position) (Result, error) {
	t.Helper()
	terms, err := vocab.LookupAll([]string{"pizza"})
	if err != nil {
		t.Fatal(err)
	}
	return db.Query(context.Background(), SKQuery{Pos: origin, Terms: terms, DeltaMax: 1000})
}

func TestSaveToCrashAtEveryPoint(t *testing.T) {
	db, vocab, origin := newChaosDB(t, Options{Index: IndexSIF})
	dir := filepath.Join(t.TempDir(), "snap")
	if err := db.SaveTo(dir); err != nil {
		t.Fatal(err)
	}
	defer func() { saveHook = nil }()

	crashErr := errors.New("chaos: power loss")
	for _, point := range saveHookPoints {
		point := point
		saveHook = func(p string) error {
			if p == point {
				return crashErr
			}
			return nil
		}
		err := db.SaveTo(dir)
		saveHook = nil
		if err == nil {
			t.Fatalf("SaveTo crashed at %q returned nil error", point)
		}
		if !errors.Is(err, crashErr) {
			t.Fatalf("SaveTo crashed at %q returned unrelated error: %v", point, err)
		}
		// The invariant: whatever point the save died at, the snapshot on
		// disk (current, previous, or the just-committed new one) must
		// load and answer queries.
		back, err := OpenPath(dir, Options{})
		if err != nil {
			t.Fatalf("OpenPath after crash at %q: %v", point, err)
		}
		res, err := chaosQuery(t, back, vocab, origin)
		if err != nil {
			t.Fatalf("query after crash at %q: %v", point, err)
		}
		if len(res.Candidates) == 0 {
			t.Fatalf("query after crash at %q found no candidates", point)
		}
	}

	// With the hook gone, a clean save must succeed and leave no debris.
	if err := db.SaveTo(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(dir + ".prev"); !os.IsNotExist(err) {
		t.Errorf("clean save left %s.prev behind (stat err %v)", dir, err)
	}
	if _, err := OpenPath(dir, Options{}); err != nil {
		t.Fatal(err)
	}
}

func TestSaveToCrashBetweenRenamesFallsBackToPrev(t *testing.T) {
	db, vocab, origin := newChaosDB(t, Options{Index: IndexIF})
	dir := filepath.Join(t.TempDir(), "snap")
	if err := db.SaveTo(dir); err != nil {
		t.Fatal(err)
	}
	defer func() { saveHook = nil }()

	// Crash exactly between "move old snapshot aside" and "move new
	// snapshot in": dir is gone, only dir+".prev" exists.
	saveHook = func(p string) error {
		if p == "rename-new" {
			return errors.New("chaos: crash between renames")
		}
		return nil
	}
	if err := db.SaveTo(dir); err == nil {
		t.Fatal("crashed save returned nil")
	}
	saveHook = nil
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("dir still present after crash between renames (stat err %v)", err)
	}
	back, err := OpenPath(dir, Options{})
	if err != nil {
		t.Fatalf("OpenPath did not fall back to .prev: %v", err)
	}
	if res, err := chaosQuery(t, back, vocab, origin); err != nil || len(res.Candidates) == 0 {
		t.Fatalf("query on .prev fallback: %v (candidates %d)", err, len(res.Candidates))
	}
}

func TestDBChecksumDetectsBitFlip(t *testing.T) {
	db, vocab, origin := newChaosDB(t, Options{Index: IndexSIF, Checksums: true})

	// Warm pass: every page read on a miss records its baseline checksum.
	if _, err := chaosQuery(t, db, vocab, origin); err != nil {
		t.Fatal(err)
	}
	// Cool the pools so the next query re-reads pages from the "medium".
	if err := db.ResetIO(); err != nil {
		t.Fatal(err)
	}
	setFaults(t, db, fault.Config{Op: fault.OpRead, EveryN: 1, Mode: fault.ModeFlipBit, Seed: 11})
	_, err := chaosQuery(t, db, vocab, origin)
	if !errors.Is(err, ErrCorruptPage) {
		t.Fatalf("query over flipped pages err = %v, want ErrCorruptPage", err)
	}
	var corrupt int64
	for _, p := range db.Snapshot().Pools {
		corrupt += p.CorruptPages
	}
	if corrupt == 0 {
		t.Error("CorruptPages counter stayed zero after a detected flip")
	}

	// Healing the medium restores service; the detected page was never
	// admitted to the buffer, so no poisoned data lingers.
	clearFaults(db)
	res, err := chaosQuery(t, db, vocab, origin)
	if err != nil {
		t.Fatalf("query after clearing faults: %v", err)
	}
	if len(res.Candidates) == 0 {
		t.Error("query after clearing faults found no candidates")
	}
}

func TestDBTransientFaultRetriedToSuccess(t *testing.T) {
	db, vocab, origin := newChaosDB(t, Options{Index: IndexSIF})
	if _, err := chaosQuery(t, db, vocab, origin); err != nil {
		t.Fatal(err)
	}
	if err := db.ResetIO(); err != nil {
		t.Fatal(err)
	}
	// The cooled query reads two pages, one of the network and the index
	// leaf that holds the list, so the campaign strikes the second.
	setFaults(t, db, fault.Config{Op: fault.OpRead, EveryN: 2, MaxFaults: 2, Transient: true})
	res, err := chaosQuery(t, db, vocab, origin)
	if err != nil {
		t.Fatalf("query under transient faults failed: %v", err)
	}
	if len(res.Candidates) == 0 {
		t.Error("query under transient faults found no candidates")
	}
	var retries int64
	for _, p := range db.Snapshot().Pools {
		retries += p.ReadRetries
	}
	if retries == 0 {
		t.Error("ReadRetries counter stayed zero under a transient campaign")
	}
}

func TestDBPermanentFaultFailsQueryThenRecovers(t *testing.T) {
	db, vocab, origin := newChaosDB(t, Options{Index: IndexSIF})
	if _, err := chaosQuery(t, db, vocab, origin); err != nil {
		t.Fatal(err)
	}
	if err := db.ResetIO(); err != nil {
		t.Fatal(err)
	}
	setFaults(t, db, fault.Config{Op: fault.OpRead, EveryN: 1})
	_, err := chaosQuery(t, db, vocab, origin)
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("query under permanent faults err = %v, want injected fault", err)
	}
	if fault.IsTransient(err) {
		t.Error("permanent fault reported as transient")
	}
	clearFaults(db)
	if res, err := chaosQuery(t, db, vocab, origin); err != nil || len(res.Candidates) == 0 {
		t.Fatalf("recovery query: %v (candidates %d)", err, len(res.Candidates))
	}
}
