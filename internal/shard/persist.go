package shard

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"dsks"
	"dsks/internal/storage"
)

// setManifestName is the shard-set manifest file inside a snapshot dir.
const setManifestName = "shard-set.json"

// setManifest persists the router's state next to the per-shard
// snapshots: the shard count, the vocabulary and the global↔local ID
// maps. Which terms a shard holds is its own snapshot's to say; the term
// bitmaps and LSN vector that manifests of earlier builds carry are
// ignored. A reopened shard may legitimately sit past the manifest after
// replaying its WAL tail; OpenSetPath reconciles the extra objects.
type setManifest struct {
	Version   int             `json:"version"`
	Shards    int             `json:"shards"`
	VocabSize int             `json:"vocabSize"`
	Homes     [][2]int64      `json:"homes"` // global -> (shard, local); shard -1 = burned
	NextLocal []dsks.ObjectID `json:"nextLocal"`
}

// SaveTo snapshots the whole set: one dsks snapshot per shard under
// <dir>/shard-<i> plus the router manifest. Each shard snapshot is swapped
// in whole (staged, fsynced, renamed), one shard after another, and the
// manifest is installed last the same way. A crash therefore leaves every
// shard snapshot and the manifest each either old or new, but not all of
// one save: a shard swapped before the crash sits past the old manifest,
// and OpenSetPath registers its extra objects under fresh global IDs, as
// for a WAL replayed past a snapshot.
func (s *Set) SaveTo(dir string) error {
	if s.closed.Load() {
		return ErrClosed
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("shard: creating snapshot dir: %w", err)
	}
	for i := range s.shards {
		sub := filepath.Join(dir, fmt.Sprintf("shard-%d", i))
		if err := s.shards[i].db.SaveTo(sub); err != nil {
			return fmt.Errorf("shard: snapshotting shard %d: %w", i, err)
		}
	}

	s.mu.RLock()
	m := setManifest{
		Version:   1,
		Shards:    len(s.shards),
		VocabSize: s.vocab,
		Homes:     make([][2]int64, len(s.homes)),
		NextLocal: make([]dsks.ObjectID, len(s.shards)),
	}
	for g, h := range s.homes {
		m.Homes[g] = [2]int64{int64(h.shard), int64(h.local)}
	}
	// A shard's next local ID is read off its ID map, which s.mu guards
	// with the homes, not off nextLocal, which its insert latch guards.
	for i := range s.shards {
		m.NextLocal[i] = dsks.ObjectID(len(s.shards[i].globals))
	}
	s.mu.RUnlock()

	blob, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("shard: encoding manifest: %w", err)
	}
	if err := installManifest(dir, blob); err != nil {
		return fmt.Errorf("shard: installing manifest: %w", err)
	}
	return nil
}

// installManifest writes blob as dir's manifest: to a temporary file that
// is fsynced before it is renamed over the old manifest, then the directory
// is fsynced so the rename itself survives a power cut.
func installManifest(dir string, blob []byte) error {
	tmp := filepath.Join(dir, setManifestName+".tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	_, werr := f.Write(blob)
	if err := errors.Join(werr, f.Sync(), f.Close()); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, setManifestName)); err != nil {
		return err
	}
	return storage.SyncDir(dir)
}

// decodeSetManifest parses a set manifest and checks everything the
// reopen indexes or sizes by before anything is allocated: version 1, at
// least one shard, a vocabulary of at least one term, a next local ID per
// shard that is not negative, and every home either burned (shard -1) or
// a shard of the set and a local ID below that shard's next one. Any
// violation is ErrBadManifest.
func decodeSetManifest(blob []byte) (setManifest, error) {
	var m setManifest
	if err := json.Unmarshal(blob, &m); err != nil {
		return m, fmt.Errorf("shard: decoding set manifest: %w: %w", ErrBadManifest, err)
	}
	if m.Version != 1 || m.Shards < 1 || len(m.NextLocal) != m.Shards {
		return m, fmt.Errorf("shard: set manifest version %d with %d shards: %w", m.Version, m.Shards, ErrBadManifest)
	}
	if m.VocabSize < 1 {
		return m, fmt.Errorf("shard: set manifest vocabulary of %d: %w", m.VocabSize, ErrBadManifest)
	}
	for i, n := range m.NextLocal {
		if n < 0 {
			return m, fmt.Errorf("shard: set manifest next local ID %d for shard %d: %w", n, i, ErrBadManifest)
		}
	}
	for g, h := range m.Homes {
		if h[0] == -1 {
			continue
		}
		if h[0] < 0 || h[0] >= int64(m.Shards) || h[1] < 0 || h[1] >= int64(m.NextLocal[h[0]]) {
			return m, fmt.Errorf("shard: manifest maps object %d to local ID %d of shard %d of %d: %w",
				g, h[1], h[0], m.Shards, ErrBadManifest)
		}
	}
	return m, nil
}

// OpenSetPath reopens a sharded snapshot written by SaveTo. Every shard
// database is reopened with its own pool, WAL dir and snapshot dir (the
// template options' WALDir is a parent directory, as in Open);
// a shard whose WAL replays past its snapshot gets its extra objects
// re-registered with fresh global IDs. The manifest's vocabulary must be
// the shards'. A shard behind the manifest lost the objects past its own
// count, and their global IDs are burned: SaveTo snapshots each shard
// before it records the manifest, so inserts that race it without a WAL
// to replay them are in the manifest only.
func OpenSetPath(dir string, opts Options) (*Set, error) {
	blob, err := os.ReadFile(filepath.Join(dir, setManifestName))
	if err != nil {
		return nil, fmt.Errorf("shard: reading set manifest: %w: %w", ErrBadManifest, err)
	}
	m, err := decodeSetManifest(blob)
	if err != nil {
		return nil, err
	}

	dbs := make([]*dsks.DB, m.Shards)
	closeAll := func() {
		for _, db := range dbs {
			if db != nil {
				_ = db.Close()
			}
		}
	}
	var g *dsks.Graph
	for i := range dbs {
		db, err := dsks.OpenPath(filepath.Join(dir, fmt.Sprintf("shard-%d", i)), shardOptions(opts.DB, i))
		if err != nil {
			closeAll()
			return nil, fmt.Errorf("shard: reopening shard %d: %w", i, err)
		}
		dbs[i] = db
		if g == nil {
			g = db.Graph()
		}
		if db.VocabSize() != m.VocabSize {
			closeAll()
			return nil, fmt.Errorf("shard: manifest vocabulary %d, shard %d's %d: %w", m.VocabSize, i, db.VocabSize(), ErrBadManifest)
		}
	}

	part, err := Split(g, m.Shards)
	if err != nil {
		closeAll()
		return nil, err
	}
	s := newSet(g, m.VocabSize, part, opts)
	for i := range s.shards {
		s.shards[i].db = dbs[i]
		s.shards[i].nextLocal = min(m.NextLocal[i], dsks.ObjectID(dbs[i].ObjectCount()))
	}
	s.homes = make([]home, len(m.Homes))
	for g, h := range m.Homes {
		if h[0] >= 0 && dsks.ObjectID(h[1]) >= s.shards[h[0]].nextLocal {
			h[0] = -1
		}
		s.homes[g] = home{shard: int32(h[0]), local: dsks.ObjectID(h[1])}
		if h[0] >= 0 {
			sh := &s.shards[h[0]]
			for int(h[1]) >= len(sh.globals) {
				sh.globals = append(sh.globals, -1)
			}
			sh.globals[h[1]] = dsks.ObjectID(g)
		}
	}
	for i := range s.shards {
		s.reconcile(i)
	}
	s.initSearchNet()
	if err := s.checkReplication(); err != nil {
		s.Close()
		return nil, err
	}
	// Replicas re-seed from the same per-shard snapshots (no WAL of
	// their own, so they reopen at the snapshot's recorded LSN) and tail
	// the primary's log from there — replaying through the tailer the
	// same records the primary replayed at open.
	for i := range s.shards {
		if err := s.startReplicas(i, nil, filepath.Join(dir, fmt.Sprintf("shard-%d", i))); err != nil {
			s.Close()
			return nil, err
		}
	}
	s.launchReplicas()
	return s, nil
}
