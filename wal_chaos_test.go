package dsks

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"dsks/internal/fault"
	"dsks/internal/wal"
)

// wal_chaos_test crashes the write-ahead log at every fault point a
// mutation crosses — the record append, the group-commit fsync, and the
// checkpoint's rotation and compaction steps — and proves the invariant
// the log exists for: a reopen recovers exactly the acknowledged
// mutations. No acked write is lost, no unacked write survives as a
// half-applied ghost.

// walBase deterministically rebuilds the same initial state on every
// call, standing in for "the same process restarting after a crash".
func walBase(t *testing.T) (*Graph, *Collection, *Vocabulary, Position, []EdgeID) {
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
	return g, objects, vocab, Position{Edge: edges[0], Offset: 0}, edges
}

// searchIDs runs a boolean search and returns the candidate IDs.
func searchIDs(t *testing.T, db *DB, vocab *Vocabulary, origin Position, word string) map[ObjectID]bool {
	t.Helper()
	terms, err := vocab.LookupAll([]string{word})
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(context.Background(), SKQuery{Pos: origin, Terms: terms, DeltaMax: 1000})
	if err != nil {
		t.Fatal(err)
	}
	ids := make(map[ObjectID]bool, len(res.Candidates))
	for _, c := range res.Candidates {
		ids[c.Ref.ID] = true
	}
	return ids
}

func TestWALRecoversMutationsWithoutSnapshot(t *testing.T) {
	walDir := filepath.Join(t.TempDir(), "wal")
	g, objects, vocab, origin, edges := walBase(t)
	opts := Options{Index: IndexSIF, WALDir: walDir}
	db, err := Open(g, objects, vocab.Size(), opts)
	if err != nil {
		t.Fatal(err)
	}
	wine, err := vocab.LookupAll([]string{"wine"})
	if err != nil {
		t.Fatal(err)
	}
	id, err := db.Insert(Position{Edge: edges[1], Offset: 10}, wine)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Remove(0); err != nil {
		t.Fatal(err)
	}
	liveBefore := db.LiveObjects()
	wantWine := searchIDs(t, db, vocab, origin, "wine")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": rebuild the identical initial state, replay the log.
	g2, objects2, vocab2, origin2, _ := walBase(t)
	db2, err := Open(g2, objects2, vocab2.Size(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if got := db2.LiveObjects(); got != liveBefore {
		t.Fatalf("LiveObjects after replay = %d, want %d", got, liveBefore)
	}
	gotWine := searchIDs(t, db2, vocab2, origin2, "wine")
	if len(gotWine) != len(wantWine) {
		t.Fatalf("wine candidates after replay = %v, want %v", gotWine, wantWine)
	}
	for w := range wantWine {
		if !gotWine[w] {
			t.Fatalf("wine candidates after replay = %v, want %v", gotWine, wantWine)
		}
	}
	if !gotWine[id] {
		t.Fatalf("replayed insert %d missing from candidates %v", id, gotWine)
	}
	if !db2.eng.Objects.Removed(0) {
		t.Fatal("replayed remove of object 0 not applied")
	}
}

func TestWALMismatchedBaseRejected(t *testing.T) {
	walDir := filepath.Join(t.TempDir(), "wal")
	g, objects, vocab, _, edges := walBase(t)
	opts := Options{Index: IndexSIF, WALDir: walDir}
	db, err := Open(g, objects, vocab.Size(), opts)
	if err != nil {
		t.Fatal(err)
	}
	wine, err := vocab.LookupAll([]string{"wine"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Insert(Position{Edge: edges[1], Offset: 10}, wine); err != nil {
		t.Fatal(err)
	}
	db.Close()

	// Reopening over a base with one extra object shifts every ID the
	// log recorded: replay must refuse rather than misnumber.
	g2, objects2, vocab2, _, edges2 := walBase(t)
	objects2.Add(Position{Edge: edges2[0], Offset: 50}, vocab2.InternAll([]string{"pizza"}))
	if _, err := Open(g2, objects2, vocab2.Size(), opts); !errors.Is(err, ErrBadWAL) {
		t.Fatalf("Open over a mismatched base = %v, want ErrBadWAL", err)
	}
}

// TestWALSkippedIDsMismatchedBaseRejected is TestWALMismatchedBaseRejected
// for a log whose insert skipped IDs, as a shard's inserts skip the IDs
// the other shards hold. The record carries the length it was assigned
// over, so a base one object short and a base one object long are both
// refused, though the logged ID lies past either; the base it was logged
// over replays it, skipped IDs and all. An ID below the IDs already
// assigned is refused before anything is logged.
func TestWALSkippedIDsMismatchedBaseRejected(t *testing.T) {
	walDir := filepath.Join(t.TempDir(), "wal")
	g, objects, vocab, _, edges := walBase(t)
	base := objects.Len()
	opts := Options{Index: IndexSIF, WALDir: walDir}
	db, err := Open(g, objects, vocab.Size(), opts)
	if err != nil {
		t.Fatal(err)
	}
	wine, err := vocab.LookupAll([]string{"wine"})
	if err != nil {
		t.Fatal(err)
	}
	pos := Position{Edge: edges[1], Offset: 10}
	id, lsn, err := db.InsertAsync(ObjectID(base+3), pos, wine)
	if err != nil || id != ObjectID(base+3) {
		t.Fatalf("InsertAsync(%d) = %d, %v", base+3, id, err)
	}
	if err := db.WaitDurable(lsn); err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.InsertAsync(ObjectID(base+1), pos, wine); err == nil {
		t.Fatalf("InsertAsync(%d) accepted below %d assigned IDs", base+1, db.ObjectCount())
	}
	if db.LSN() != lsn {
		t.Fatalf("a refused insert moved the LSN from %d to %d", lsn, db.LSN())
	}
	db.Close()

	for _, tc := range []struct {
		name string
		edit func(*Collection, Position) *Collection
	}{
		{"one object short", func(c *Collection, _ Position) *Collection {
			short := NewCollection()
			for id := ObjectID(0); int(id) < c.Len()-1; id++ {
				short.Add(c.Get(id).Pos, c.Get(id).Terms)
			}
			return short
		}},
		{"one object long", func(c *Collection, p Position) *Collection {
			c.Add(p, nil)
			return c
		}},
	} {
		g2, objects2, vocab2, origin, _ := walBase(t)
		if _, err := Open(g2, tc.edit(objects2, origin), vocab2.Size(), opts); !errors.Is(err, ErrBadWAL) {
			t.Fatalf("Open over a base %s = %v, want ErrBadWAL", tc.name, err)
		}
	}

	g3, objects3, vocab3, _, _ := walBase(t)
	db3, err := Open(g3, objects3, vocab3.Size(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db3.Close()
	if db3.ObjectCount() != base+4 || db3.LiveObjects() != base+1 {
		t.Fatalf("replay over the logged base: %d IDs, %d live; want %d, %d", db3.ObjectCount(), db3.LiveObjects(), base+4, base+1)
	}
	for id := base; id < base+3; id++ {
		if !objects3.Removed(ObjectID(id)) {
			t.Fatalf("skipped ID %d is not a tombstone after the replay", id)
		}
	}
}

// TestWALCrashAtEveryMutationFaultPoint injects a fault at each I/O
// step of the mutation path — the append write (failed outright or
// torn) and the group-commit fsync — then reopens and verifies the
// exactly-acked invariant.
func TestWALCrashAtEveryMutationFaultPoint(t *testing.T) {
	cases := []struct {
		name string
		cfg  fault.Config
	}{
		{"append-fail", fault.Config{Op: fault.OpWrite, EveryN: 1, Mode: fault.ModeFail}},
		{"append-torn", fault.Config{Op: fault.OpWrite, EveryN: 1, Mode: fault.ModeTornWrite, TornBytes: 5}},
		{"fsync-fail", fault.Config{Op: fault.OpSync, EveryN: 1, Mode: fault.ModeFail}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			walDir := filepath.Join(t.TempDir(), "wal")
			g, objects, vocab, origin, edges := walBase(t)
			baseLen := objects.Len()
			opts := Options{Index: IndexSIF, WALDir: walDir}
			db, err := Open(g, objects, vocab.Size(), opts)
			if err != nil {
				t.Fatal(err)
			}
			wine, err := vocab.LookupAll([]string{"wine"})
			if err != nil {
				t.Fatal(err)
			}

			// Phase 1: acknowledged mutations, before any fault.
			var acked []ObjectID
			for i := 0; i < 3; i++ {
				id, err := db.Insert(Position{Edge: edges[i%len(edges)], Offset: 10}, wine)
				if err != nil {
					t.Fatal(err)
				}
				acked = append(acked, id)
			}
			if err := db.Remove(acked[0]); err != nil {
				t.Fatal(err)
			}

			// Phase 2: the fault campaign. Injected directly into the log
			// so the page stores stay healthy — this is a WAL crash, not a
			// disk-wide outage.
			inj, err := fault.New(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			db.wal.SetInjector(inj)
			if _, err := db.Insert(Position{Edge: edges[0], Offset: 60}, wine); err == nil {
				t.Fatal("insert under the fault campaign was acknowledged")
			} else if tc.cfg.Mode == fault.ModeFail && !errors.Is(err, fault.ErrInjected) {
				// (A torn write surfaces as io.ErrShortWrite instead.)
				t.Fatalf("faulted insert error %v does not wrap fault.ErrInjected", err)
			}
			if err := db.Remove(acked[1]); err == nil {
				t.Fatal("remove under the fault campaign was acknowledged")
			}
			if tc.cfg.Op == fault.OpSync {
				// A failed fsync poisons the log: the medium accepted bytes
				// it cannot flush, so no later write can be trusted either.
				if _, err := db.Insert(Position{Edge: edges[0], Offset: 70}, wine); !errors.Is(err, ErrWALClosed) {
					t.Fatalf("insert on poisoned log = %v, want ErrWALClosed", err)
				}
			}
			_ = db.Close() // a poisoned log reports its sticky error; the crash discards it

			// Phase 3: restart. Exactly the acked mutations come back.
			g2, objects2, vocab2, origin2, _ := walBase(t)
			db2, err := Open(g2, objects2, vocab2.Size(), Options{Index: IndexSIF, WALDir: walDir})
			if err != nil {
				t.Fatalf("reopen after %s: %v", tc.name, err)
			}
			defer db2.Close()
			col := db2.eng.Objects
			if col.Len() != baseLen+len(acked) {
				t.Fatalf("recovered %d allocated IDs, want %d (base %d + %d acked inserts)",
					col.Len(), baseLen+len(acked), baseLen, len(acked))
			}
			if col.Removed(acked[1]) {
				t.Fatalf("unacked remove of %d survived the crash", acked[1])
			}
			if !col.Removed(acked[0]) {
				t.Fatalf("acked remove of %d was lost", acked[0])
			}
			wantLive := baseLen + len(acked) - 1
			if got := db2.LiveObjects(); got != wantLive {
				t.Fatalf("LiveObjects after recovery = %d, want %d", got, wantLive)
			}
			ids := searchIDs(t, db2, vocab2, origin2, "wine")
			for _, id := range acked[1:] {
				if !ids[id] {
					t.Fatalf("acked insert %d missing from recovered candidates %v", id, ids)
				}
			}
			_ = origin
		})
	}
}

// TestWALCheckpointCrashAtEveryPoint crashes SaveTo's log checkpoint at
// each of its commit points (drain, rotation, compaction) and verifies
// that snapshot-plus-log still recovers every acknowledged mutation.
func TestWALCheckpointCrashAtEveryPoint(t *testing.T) {
	defer func() { wal.CrashHook = nil }()
	for _, point := range wal.CrashPoints {
		t.Run(point, func(t *testing.T) {
			tmp := t.TempDir()
			walDir := filepath.Join(tmp, "wal")
			snapDir := filepath.Join(tmp, "snap")
			g, objects, vocab, origin, edges := walBase(t)
			db, err := Open(g, objects, vocab.Size(), Options{Index: IndexSIF, WALDir: walDir})
			if err != nil {
				t.Fatal(err)
			}
			wine, err := vocab.LookupAll([]string{"wine"})
			if err != nil {
				t.Fatal(err)
			}
			var acked []ObjectID
			for i := 0; i < 3; i++ {
				id, err := db.Insert(Position{Edge: edges[i%len(edges)], Offset: 10}, wine)
				if err != nil {
					t.Fatal(err)
				}
				acked = append(acked, id)
			}

			wal.CrashHook = func(p string) error {
				if p == point {
					return fmt.Errorf("chaos: power loss at %s", p)
				}
				return nil
			}
			if err := db.SaveTo(snapDir); err == nil {
				t.Fatalf("SaveTo with a checkpoint crash at %s returned nil", point)
			}
			wal.CrashHook = nil
			db.Close()

			// The snapshot committed before the checkpoint began, so the
			// crash only left the log longer than strictly needed. Replay
			// over the snapshot is idempotent: everything acked survives,
			// nothing is applied twice.
			db2, err := OpenPath(snapDir, Options{WALDir: walDir})
			if err != nil {
				t.Fatalf("OpenPath after checkpoint crash at %s: %v", point, err)
			}
			defer db2.Close()
			if got := db2.LiveObjects(); got != 4+len(acked) {
				t.Fatalf("LiveObjects after crash at %s = %d, want %d", point, got, 4+len(acked))
			}
			ids := searchIDs(t, db2, vocab, origin, "wine")
			for _, id := range acked {
				if !ids[id] {
					t.Fatalf("acked insert %d missing after checkpoint crash at %s (got %v)", id, point, ids)
				}
			}
			// And the recovered database keeps working: mutate and save again.
			if _, err := db2.Insert(Position{Edge: edges[0], Offset: 80}, wine); err != nil {
				t.Fatalf("insert after recovery from crash at %s: %v", point, err)
			}
			if err := db2.SaveTo(snapDir); err != nil {
				t.Fatalf("clean SaveTo after recovery from crash at %s: %v", point, err)
			}
		})
	}
}

// TestWALGroupCommitUnderConcurrentMutators verifies the group-commit
// economics: concurrent committers share fsyncs, so the log issues
// strictly fewer fsyncs than it acknowledges records.
func TestWALGroupCommitUnderConcurrentMutators(t *testing.T) {
	walDir := filepath.Join(t.TempDir(), "wal")
	g, objects, vocab, _, edges := walBase(t)
	db, err := Open(g, objects, vocab.Size(), Options{Index: IndexSIF, WALDir: walDir})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	wine, err := vocab.LookupAll([]string{"wine"})
	if err != nil {
		t.Fatal(err)
	}

	const writers, per = 8, 20
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if _, err := db.Insert(Position{Edge: edges[w%len(edges)], Offset: 10}, wine); err != nil {
					t.Errorf("concurrent insert: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	counters := db.Snapshot().Counters
	synced := counters["wal_synced_records_total"]
	fsyncs := counters["wal_fsyncs_total"]
	if synced != writers*per {
		t.Fatalf("wal_synced_records_total = %d, want %d", synced, writers*per)
	}
	if fsyncs == 0 || fsyncs >= synced {
		t.Fatalf("group commit degenerated: %d fsyncs for %d acked records", fsyncs, synced)
	}
	t.Logf("group commit: %d records over %d fsyncs (%.1f per batch)",
		synced, fsyncs, float64(synced)/float64(fsyncs))
}
