package shard

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"dsks"
)

// TestOpenSetPathRejectsHostileManifest: a saved two-shard set whose
// manifest was edited fails to reopen with ErrBadManifest, without a panic
// and before an edited count could size an allocation: a negative
// vocabulary, a vocabulary other than the shards' and version 1, whose
// shard-local IDs the shards no longer use. The manifest as saved reopens.
func TestOpenSetPathRejectsHostileManifest(t *testing.T) {
	opts := Options{DB: dsks.Options{Index: dsks.IndexSIF}}
	set, _ := testSet(t, 2, opts)
	dir := t.TempDir()
	if err := set.SaveTo(dir); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, setManifestName)
	saved, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		edit func(m *setManifest)
	}{
		{"negative vocabulary", func(m *setManifest) { m.VocabSize = -1000 }},
		{"vocabulary other than the shards'", func(m *setManifest) { m.VocabSize++ }},
		{"version 1", func(m *setManifest) { m.Version = 1 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var m setManifest
			if err := json.Unmarshal(saved, &m); err != nil {
				t.Fatal(err)
			}
			tc.edit(&m)
			blob, err := json.Marshal(m)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, blob, 0o644); err != nil {
				t.Fatal(err)
			}
			if s, err := OpenSetPath(dir, opts); !errors.Is(err, ErrBadManifest) {
				if err == nil {
					_ = s.Close()
				}
				t.Fatalf("OpenSetPath: %v, want ErrBadManifest", err)
			}
		})
	}

	if err := os.WriteFile(path, saved, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := OpenSetPath(dir, opts)
	if err != nil {
		t.Fatalf("OpenSetPath: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestAckedIDsSurviveRestart: a 4-shard set with a WAL, inserted into
// round-robin in reverse shard order, is reopened through both paths —
// Open over the log with no save, and OpenSetPath over a save that four
// more inserts outran — and every acked ID answers for its own object at
// its own position, and Remove by an acked ID removes that object.
func TestAckedIDsSurviveRestart(t *testing.T) {
	const shards = 4
	generate := func(t *testing.T) *dsks.Dataset {
		ds, err := dsks.GeneratePreset(dsks.PresetSYN, 1000, 42)
		if err != nil {
			t.Fatal(err)
		}
		return ds
	}
	type ack struct {
		id   dsks.ObjectID
		pos  dsks.Position
		term dsks.TermID
	}
	// insert adds n objects round-robin over the shards, last shard
	// first, each on an edge of its own with a term of its own.
	insert := func(t *testing.T, set *Set, acked []ack, n int) []ack {
		var edges [shards][]dsks.EdgeID
		for e, owner := range set.Partition().Owner {
			edges[owner] = append(edges[owner], dsks.EdgeID(e))
		}
		for k := len(acked); n > 0; k, n = k+1, n-1 {
			si := shards - 1 - k%shards
			pos := dsks.Position{Edge: edges[si][k/shards], Offset: 0.5}
			term := dsks.TermID(k % set.VocabSize())
			id, _, err := set.Insert(pos, []dsks.TermID{term})
			if err != nil {
				t.Fatalf("insert %d on shard %d: %v", k, si, err)
			}
			acked = append(acked, ack{id, pos, term})
		}
		return acked
	}
	// at reports whether the object at a's position answers under a's ID,
	// and whether any object with a's term is left at that position.
	at := func(t *testing.T, set *Set, a ack) (own, left bool) {
		ctx := context.Background()
		mv, err := set.View(ctx)
		if err != nil {
			t.Fatal(err)
		}
		defer mv.Close()
		res, err := mv.Query(ctx, dsks.SKQuery{Pos: a.pos, Terms: []dsks.TermID{a.term}, DeltaMax: 1e-9})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range res.Candidates {
			if c.Ref.Pos() == a.pos {
				left = true
				own = own || c.Ref.ID == a.id
			}
		}
		return own, left
	}
	check := func(t *testing.T, set *Set, acked []ack) {
		t.Helper()
		missing := 0
		for _, a := range acked {
			if own, _ := at(t, set, a); !own {
				missing++
			}
		}
		if missing > 0 {
			t.Fatalf("%d of %d acked IDs do not answer at their position after the reopen", missing, len(acked))
		}
		live := set.LiveObjects()
		for _, a := range acked {
			if own, _ := at(t, set, a); !own {
				t.Fatalf("acked object %d left its position before it was removed", a.id)
			}
			if _, err := set.Remove(a.id); err != nil {
				t.Fatalf("remove of acked object %d: %v", a.id, err)
			}
			if _, left := at(t, set, a); left {
				t.Fatalf("remove of acked object %d left its object at %+v", a.id, a.pos)
			}
		}
		if got := set.LiveObjects(); got != live-len(acked) {
			t.Fatalf("%d live objects after %d removes, want %d", got, len(acked), live-len(acked))
		}
	}

	t.Run("Open over the WAL", func(t *testing.T) {
		opts := Options{DB: dsks.Options{Index: dsks.IndexSIF, WALDir: t.TempDir()}}
		open := func() *Set {
			ds := generate(t)
			set, err := Open(ds.Graph, ds.Objects, ds.VocabSize, shards, opts)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = set.Close() })
			checkNoPins(t, set)
			return set
		}
		set := open()
		acked := insert(t, set, nil, 12)
		if err := set.Close(); err != nil {
			t.Fatal(err)
		}
		check(t, open(), acked)
	})

	t.Run("OpenSetPath over a save and the WAL", func(t *testing.T) {
		opts := Options{DB: dsks.Options{Index: dsks.IndexSIF, WALDir: t.TempDir()}}
		ds := generate(t)
		set, err := Open(ds.Graph, ds.Objects, ds.VocabSize, shards, opts)
		if err != nil {
			t.Fatal(err)
		}
		acked := insert(t, set, nil, 12)
		dir := t.TempDir()
		if err := set.SaveTo(dir); err != nil {
			t.Fatal(err)
		}
		acked = insert(t, set, acked, 4)
		if err := set.Close(); err != nil {
			t.Fatal(err)
		}
		reopened, err := OpenSetPath(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = reopened.Close() })
		checkNoPins(t, reopened)
		check(t, reopened, acked)
	})
}

// TestSetSavedUnderInsertsReopens: snapshots of a set without a WAL taken
// while inserts run reopen, and take the next insert. Each shard is saved
// at its own moment, so the shards' snapshots end at different IDs; the
// reopened set gives the next insert an ID past every ID a shard holds.
func TestSetSavedUnderInsertsReopens(t *testing.T) {
	opts := Options{DB: dsks.Options{Index: dsks.IndexSIF}}
	set, ds := testSet(t, 2, opts)
	o := ds.Objects.Get(0)
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			if _, _, err := set.Insert(o.Pos, o.Terms); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	defer wg.Wait()
	defer stop.Store(true)
	for i := 0; i < 5; i++ {
		dir := t.TempDir()
		if err := set.SaveTo(dir); err != nil {
			t.Fatal(err)
		}
		s, err := OpenSetPath(dir, opts)
		if err != nil {
			t.Fatalf("save %d: %v", i, err)
		}
		held := 0
		for j := 0; j < s.Shards(); j++ {
			held = max(held, s.DB(j).ObjectCount())
		}
		id, _, err := s.Insert(o.Pos, o.Terms)
		if cerr := s.Close(); err != nil || cerr != nil {
			t.Fatalf("save %d: insert after the reopen: %v; close: %v", i, err, cerr)
		}
		if int(id) < held {
			t.Fatalf("save %d: insert after the reopen took ID %d, below the %d IDs a shard holds", i, id, held)
		}
	}
}

// FuzzSetManifest: decodeSetManifest never panics, rejects with
// ErrBadManifest, and every manifest it accepts is one OpenSetPath can
// size by without a check of its own: version 2, at least one shard and a
// vocabulary of at least one term. A version-1 manifest, which maps
// shard-local IDs, is refused, and so is a version this build does not
// know. The last seed carries the fields of earlier
// builds (term bitmaps, ID maps) and must decode: JSON fields the manifest
// does not name are ignored.
func FuzzSetManifest(f *testing.F) {
	valid := setManifest{Version: 2, Shards: 2, VocabSize: 70}
	blob, err := json.Marshal(valid)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	for _, edit := range []func(m *setManifest){
		func(m *setManifest) { m.VocabSize = -1000 },
		func(m *setManifest) { m.Shards = 0 },
		func(m *setManifest) { m.Version = 1 },
		func(m *setManifest) { m.Version = 3 },
	} {
		m := valid
		edit(&m)
		if blob, err = json.Marshal(m); err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	f.Add([]byte(`{}`))
	v1 := []byte(`{"version":1,"shards":2,"vocabSize":70,"homes":[[0,0],[1,0],[-1,0],[0,1]],"nextLocal":[2,1]}`)
	if _, err := decodeSetManifest(v1); !errors.Is(err, ErrBadManifest) || !strings.Contains(err.Error(), "version 1") {
		f.Fatalf("a version-1 manifest: %v, want ErrBadManifest naming the version", err)
	}
	f.Add(v1)
	old := []byte(`{"version":2,"shards":1,"vocabSize":1,"termBits":[[0]],"homes":[[0,0]],"nextLocal":[1]}`)
	if _, err := decodeSetManifest(old); err != nil {
		f.Fatalf("a manifest with the fields of earlier builds: %v", err)
	}
	f.Add(old)

	f.Fuzz(func(t *testing.T, blob []byte) {
		m, err := decodeSetManifest(blob)
		if err != nil {
			if !errors.Is(err, ErrBadManifest) {
				t.Fatalf("rejected with %v, which is not ErrBadManifest", err)
			}
			return
		}
		if m.Version != 2 || m.Shards < 1 || m.VocabSize < 1 {
			t.Fatalf("accepted version %d, %d shards, vocabulary %d", m.Version, m.Shards, m.VocabSize)
		}
	})
}
