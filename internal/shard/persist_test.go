package shard

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"dsks"
)

// TestOpenSetPathRejectsHostileManifest: a saved two-shard set whose
// manifest was edited fails to reopen with ErrBadManifest, without a panic
// and before an edited count could size an allocation: a negative local
// ID, a negative vocabulary, a local ID past its shard's next one, a
// vocabulary other than the shards' and a home on a shard outside the set.
// A next local ID raised past the objects its shard holds sizes nothing
// either: the home past them is burned. The manifest as saved reopens.
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
		{"negative local ID", func(m *setManifest) { m.Homes[0][1] = -3 }},
		{"negative vocabulary", func(m *setManifest) { m.VocabSize = -1000 }},
		{"local ID past its shard's next", func(m *setManifest) { m.Homes[0][1] = 300_000_000 }},
		{"vocabulary other than the shards'", func(m *setManifest) { m.VocabSize++ }},
		{"home on a shard outside the set", func(m *setManifest) { m.Homes[0][0] = 2 }},
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

	var m setManifest
	if err := json.Unmarshal(saved, &m); err != nil {
		t.Fatal(err)
	}
	shard := m.Homes[0][0]
	m.Homes[0][1], m.NextLocal[shard] = 300_000_000, 300_000_001
	raised, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, blob := range [][]byte{raised, saved} {
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := OpenSetPath(dir, opts)
		if err != nil {
			t.Fatalf("OpenSetPath: %v", err)
		}
		sh := &s.shards[shard]
		if n := sh.db.ObjectCount(); int(sh.nextLocal) != n || len(sh.globals) > n {
			t.Errorf("shard %d holds %d objects, the router's next local ID is %d and it maps %d", shard, n, sh.nextLocal, len(sh.globals))
		}
		if burned := s.homes[0].shard < 0; burned != bytes.Equal(blob, raised) {
			t.Errorf("object 0 burned: %v", burned)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSetSavedUnderInsertsReopens: snapshots of a set without a WAL taken
// while inserts run reopen, and take the next insert. Each shard is saved
// before the manifest, so the manifest counts objects its shard's snapshot
// lacks; the reopened router burns their IDs instead of expecting local
// IDs the shard will never assign.
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
		_, _, err = s.Insert(o.Pos, o.Terms)
		if cerr := s.Close(); err != nil || cerr != nil {
			t.Fatalf("save %d: insert after the reopen: %v; close: %v", i, err, cerr)
		}
	}
}

// FuzzSetManifest: decodeSetManifest never panics, rejects with
// ErrBadManifest, and every manifest it accepts is one OpenSetPath can
// index and size by without a check of its own: version 1, one next local
// ID (not negative) per shard, and every home burned or a local ID below
// its shard's next. The last seed carries term bitmaps and must decode:
// JSON fields the manifest does not name are ignored.
func FuzzSetManifest(f *testing.F) {
	valid := setManifest{
		Version: 1, Shards: 2, VocabSize: 70,
		Homes:     [][2]int64{{0, 0}, {1, 0}, {-1, 0}, {0, 1}},
		NextLocal: []dsks.ObjectID{2, 1},
	}
	blob, err := json.Marshal(valid)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	for _, edit := range []func(m *setManifest){
		func(m *setManifest) { m.Homes = [][2]int64{{0, -3}} },
		func(m *setManifest) { m.VocabSize = -1000 },
		func(m *setManifest) { m.Homes = [][2]int64{{1, 300_000_000}} },
		func(m *setManifest) { m.Homes = [][2]int64{{-2, 0}} },
		func(m *setManifest) { m.NextLocal = []dsks.ObjectID{2} },
	} {
		m := valid
		edit(&m)
		if blob, err = json.Marshal(m); err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	f.Add([]byte(`{}`))
	old := []byte(`{"version":1,"shards":1,"vocabSize":1,"termBits":[[0]],"nextLocal":[0]}`)
	if _, err := decodeSetManifest(old); err != nil {
		f.Fatalf("a manifest with term bitmaps: %v", err)
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
		if m.Version != 1 || m.Shards < 1 || len(m.NextLocal) != m.Shards || m.VocabSize < 1 {
			t.Fatalf("accepted version %d, %d shards, %d next local IDs, vocabulary %d",
				m.Version, m.Shards, len(m.NextLocal), m.VocabSize)
		}
		for i, n := range m.NextLocal {
			if n < 0 {
				t.Fatalf("accepted shard %d with next local ID %d", i, n)
			}
		}
		for g, h := range m.Homes {
			if h[0] != -1 && (h[0] < 0 || h[0] >= int64(m.Shards) || h[1] < 0 || h[1] >= int64(m.NextLocal[h[0]])) {
				t.Fatalf("accepted object %d at local ID %d of shard %d", g, h[1], h[0])
			}
		}
	})
}
