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

// setManifestVersion is the version SaveTo writes and OpenSetPath reads.
// Version 1 mapped object IDs to shard-local ones, which shards no longer use.
const setManifestVersion = 2

// setManifest persists the router's state next to the per-shard
// snapshots: the shard count and the vocabulary. Which objects and terms
// a shard holds, under which IDs, is its own snapshot's to say; fields
// that manifests of earlier builds carry are ignored.
type setManifest struct {
	Version   int `json:"version"`
	Shards    int `json:"shards"`
	VocabSize int `json:"vocabSize"`
}

// SaveTo snapshots the whole set: one dsks snapshot per shard under
// <dir>/shard-<i> plus the router manifest. Each shard snapshot is swapped
// in whole (staged, fsynced, renamed), one shard after another, and the
// manifest is installed last the same way. A crash therefore leaves every
// shard snapshot and the manifest each either old or new, but not all of
// one save; each shard snapshot holds its objects under their set-wide
// IDs either way.
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

	blob, err := json.Marshal(setManifest{Version: setManifestVersion, Shards: len(s.shards), VocabSize: s.vocab})
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
// reopen sizes by before anything is allocated: version 2, at least one
// shard and a vocabulary of at least one term. Any violation is
// ErrBadManifest.
func decodeSetManifest(blob []byte) (setManifest, error) {
	var m setManifest
	if err := json.Unmarshal(blob, &m); err != nil {
		return m, fmt.Errorf("shard: decoding set manifest: %w: %w", ErrBadManifest, err)
	}
	if m.Version != setManifestVersion || m.Shards < 1 || m.VocabSize < 1 {
		return m, fmt.Errorf("shard: set manifest version %d (want %d) with %d shards and a vocabulary of %d: %w",
			m.Version, setManifestVersion, m.Shards, m.VocabSize, ErrBadManifest)
	}
	return m, nil
}

// OpenSetPath reopens a sharded snapshot written by SaveTo. Every shard
// database is reopened with its own pool, WAL dir and snapshot dir (the
// template options' WALDir is a parent directory, as in Open), and
// replays its WAL tail under the IDs the log recorded. The manifest's
// vocabulary must be the shards'. The next insert takes an ID past every
// ID a shard holds.
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
	}
	s.startIDs(0)
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
