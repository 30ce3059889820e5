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
// snapshots: the shard count, the global↔local ID maps and the term
// bitmaps. The per-shard LSN vector is recorded for diagnostics; a
// reopened shard may legitimately sit past it after replaying its WAL
// tail, in which case OpenSetPath reconciles the extra objects.
type setManifest struct {
	Version   int             `json:"version"`
	Shards    int             `json:"shards"`
	VocabSize int             `json:"vocabSize"`
	Homes     [][2]int64      `json:"homes"` // global -> (shard, local); shard -1 = burned
	TermBits  [][]uint64      `json:"termBits"`
	LSNs      []uint64        `json:"lsns"`
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
		TermBits:  make([][]uint64, len(s.termBits)),
		LSNs:      s.LSNs(),
		NextLocal: make([]dsks.ObjectID, len(s.shards)),
	}
	for g, h := range s.homes {
		m.Homes[g] = [2]int64{int64(h.shard), int64(h.local)}
	}
	for i, bits := range s.termBits {
		m.TermBits[i] = append([]uint64(nil), bits...)
	}
	for i := range s.shards {
		m.NextLocal[i] = s.shards[i].nextLocal
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

// OpenSetPath reopens a sharded snapshot written by SaveTo. Every shard
// database is reopened with its own pool, WAL dir and snapshot dir (the
// template options' WALDir is a parent directory, as in Open);
// a shard whose WAL replays past its snapshot gets its extra objects
// re-registered with fresh global IDs.
func OpenSetPath(dir string, opts Options) (*Set, error) {
	blob, err := os.ReadFile(filepath.Join(dir, setManifestName))
	if err != nil {
		return nil, fmt.Errorf("shard: reading set manifest: %w: %w", ErrBadManifest, err)
	}
	var m setManifest
	if err := json.Unmarshal(blob, &m); err != nil {
		return nil, fmt.Errorf("shard: decoding set manifest: %w: %w", ErrBadManifest, err)
	}
	if m.Version != 1 || m.Shards < 1 || len(m.TermBits) != m.Shards || len(m.NextLocal) != m.Shards {
		return nil, fmt.Errorf("shard: set manifest version %d with %d shards: %w", m.Version, m.Shards, ErrBadManifest)
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
	}

	part, err := Split(g, m.Shards)
	if err != nil {
		closeAll()
		return nil, err
	}
	s := newSet(g, m.VocabSize, part, opts)
	for i := range s.shards {
		s.shards[i].db = dbs[i]
		s.shards[i].nextLocal = m.NextLocal[i]
	}
	s.homes = make([]home, len(m.Homes))
	for g, h := range m.Homes {
		s.homes[g] = home{shard: int32(h[0]), local: dsks.ObjectID(h[1])}
		if h[0] >= 0 {
			if int(h[0]) >= m.Shards {
				s.Close()
				return nil, fmt.Errorf("shard: manifest maps object %d to shard %d of %d: %w", g, h[0], m.Shards, ErrBadManifest)
			}
			sh := &s.shards[h[0]]
			for int(h[1]) >= len(sh.globals) {
				sh.globals = append(sh.globals, -1)
			}
			sh.globals[h[1]] = dsks.ObjectID(g)
		}
	}
	for i, bits := range m.TermBits {
		if len(bits) == len(s.termBits[i]) {
			copy(s.termBits[i], bits)
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
