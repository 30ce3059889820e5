package dsks_test

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"dsks"
	"dsks/internal/wal"
)

// TestWALReplayMatchesPureInMemoryReplay is the replay idempotency
// property: a database restored from a mid-sequence snapshot plus the
// write-ahead log's tail must be indistinguishable from one that simply
// applied the whole mutation sequence in memory. The same pseudo-random
// insert/remove sequence drives both; queries over every term must
// agree object for object, distance for distance.
func TestWALReplayMatchesPureInMemoryReplay(t *testing.T) {
	const (
		vocab = 8
		ops   = 120
		snapA = ops / 3 // two snapshots: replay starts from the second,
		snapB = ops / 2 // and the first exercises log compaction
	)
	build := func() (*dsks.Graph, *dsks.Collection) {
		g, err := dsks.GenerateNetwork(dsks.NetworkConfig{Nodes: 40, EdgeFactor: 1.5, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		col := dsks.NewCollection()
		for e := 0; e < g.NumEdges(); e += 4 {
			col.Add(dsks.Position{Edge: dsks.EdgeID(e), Offset: 1},
				[]dsks.TermID{dsks.TermID(e % vocab), dsks.TermID((e + 3) % vocab)})
		}
		return g, col
	}

	tmp := t.TempDir()
	walDir := filepath.Join(tmp, "wal")
	snapDir := filepath.Join(tmp, "snap")

	g1, col1 := build()
	seeded := col1.Len()
	logged, err := dsks.Open(g1, col1, vocab, dsks.Options{Index: dsks.IndexSIF, WALDir: walDir})
	if err != nil {
		t.Fatal(err)
	}
	g2, col2 := build()
	shadow, err := dsks.Open(g2, col2, vocab, dsks.Options{Index: dsks.IndexSIF})
	if err != nil {
		t.Fatal(err)
	}
	numEdges := g1.NumEdges()

	rng := rand.New(rand.NewSource(42))
	var live []dsks.ObjectID
	for id := 0; id < seeded; id++ {
		live = append(live, dsks.ObjectID(id))
	}
	for i := 0; i < ops; i++ {
		if rng.Float64() < 0.65 || len(live) == 0 {
			pos := dsks.Position{Edge: dsks.EdgeID(rng.Intn(numEdges)), Offset: rng.Float64() * 2}
			terms := []dsks.TermID{dsks.TermID(rng.Intn(vocab)), dsks.TermID(rng.Intn(vocab))}
			a, err := logged.Insert(pos, terms)
			if err != nil {
				t.Fatalf("op %d: logged insert: %v", i, err)
			}
			b, err := shadow.Insert(pos, terms)
			if err != nil {
				t.Fatalf("op %d: shadow insert: %v", i, err)
			}
			if a != b {
				t.Fatalf("op %d: logged insert got ID %d, shadow got %d", i, a, b)
			}
			live = append(live, a)
		} else {
			j := rng.Intn(len(live))
			id := live[j]
			if err := logged.Remove(id); err != nil {
				t.Fatalf("op %d: logged remove %d: %v", i, id, err)
			}
			if err := shadow.Remove(id); err != nil {
				t.Fatalf("op %d: shadow remove %d: %v", i, id, err)
			}
			live = append(live[:j], live[j+1:]...)
		}
		if i == snapA || i == snapB {
			if err := logged.SaveTo(snapDir); err != nil {
				t.Fatalf("op %d: SaveTo: %v", i, err)
			}
		}
	}
	if err := logged.Close(); err != nil {
		t.Fatal(err)
	}

	restored, err := dsks.OpenPath(snapDir, dsks.Options{WALDir: walDir})
	if err != nil {
		t.Fatalf("OpenPath over snapshot+log: %v", err)
	}
	defer restored.Close()

	if got, want := restored.LiveObjects(), shadow.LiveObjects(); got != want {
		t.Fatalf("LiveObjects: restored %d, shadow %d", got, want)
	}
	// Every term, same origin: the candidate sets (IDs and network
	// distances) must be identical.
	origin := dsks.Position{Edge: 0, Offset: 0}
	for term := 0; term < vocab; term++ {
		q := dsks.SKQuery{Pos: origin, Terms: []dsks.TermID{dsks.TermID(term)}, DeltaMax: 1e9}
		a, err := restored.Query(context.Background(), q)
		if err != nil {
			t.Fatalf("term %d: restored search: %v", term, err)
		}
		b, err := shadow.Query(context.Background(), q)
		if err != nil {
			t.Fatalf("term %d: shadow search: %v", term, err)
		}
		if len(a.Candidates) != len(b.Candidates) {
			t.Fatalf("term %d: restored %d candidates, shadow %d", term, len(a.Candidates), len(b.Candidates))
		}
		dists := make(map[dsks.ObjectID]float64, len(b.Candidates))
		for _, c := range b.Candidates {
			dists[c.Ref.ID] = c.Dist
		}
		for _, c := range a.Candidates {
			want, ok := dists[c.Ref.ID]
			if !ok {
				t.Fatalf("term %d: restored candidate %d absent from shadow", term, c.Ref.ID)
			}
			if math.Abs(c.Dist-want) > 1e-9 {
				t.Fatalf("term %d: candidate %d at distance %v, shadow says %v", term, c.Ref.ID, c.Dist, want)
			}
		}
	}
}

// TestWALReplayRejectsNonFiniteInsert: a log holding an insert at a NaN
// offset — which a build without the finite-offset rule acknowledged and
// logged — fails the open with ErrBadWAL naming its LSN, the way a record
// that contradicts the opened state does; the record is never applied.
func TestWALReplayRejectsNonFiniteInsert(t *testing.T) {
	g, err := dsks.GenerateNetwork(dsks.NetworkConfig{Nodes: 40, EdgeFactor: 1.5, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	col := dsks.NewCollection()
	col.Add(dsks.Position{Edge: 0, Offset: 1}, []dsks.TermID{0})
	walDir := filepath.Join(t.TempDir(), "wal")
	l, _, err := wal.Open(walDir, 0, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(wal.Record{Type: wal.RecInsert, ID: 1, Edge: 0, Offset: math.NaN(), Terms: []int32{0}}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	db, err := dsks.Open(g, col, 4, dsks.Options{Index: dsks.IndexSIF, WALDir: walDir})
	if err == nil {
		db.Close()
		t.Fatal("a logged insert at a NaN offset replayed")
	}
	if !errors.Is(err, dsks.ErrBadWAL) || !strings.Contains(err.Error(), "LSN 1") {
		t.Fatalf("err = %v, want ErrBadWAL at LSN 1", err)
	}
}
