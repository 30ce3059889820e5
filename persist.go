package dsks

import (
	"bufio"
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"dsks/internal/dataset"
	"dsks/internal/graph"
	"dsks/internal/obj"
	"dsks/internal/storage"
)

// Database persistence: SaveTo snapshots the road network, the live object
// set and the database options into a directory; OpenPath restores them and
// rebuilds the disk-resident index structures. The structures themselves
// are bulk-built (as in the paper), so rebuild-on-open is both simple and
// fast.
//
// Snapshots are crash-safe (since format 2): SaveTo stages everything in a
// temporary directory, fsyncs each file, records a manifest with per-file
// CRC32C checksums, and swaps the staged directory into place with atomic
// renames. A crash at any point leaves either the previous snapshot or a
// complete new one — never a torn mixture — and OpenPath verifies the
// manifest before trusting the files.
//
// Format 3 additionally records the write-ahead-log linkage: the LSN the
// snapshot includes (so OpenPath replays only the log's tail past it, and
// SaveTo can compact the log down to that point) and the object ID
// allocation state (total allocated IDs plus the tombstoned ones), so
// that objects keep their IDs across a restore and replayed log records
// address the right ones. Format-1 (no manifest) and format-2 (dense ID
// reassignment, no log linkage) snapshots are still readable.

// dbMeta is the persisted configuration.
type dbMeta struct {
	Format         int       `json:"format"`
	Index          IndexKind `json:"index"`
	BufferFraction float64   `json:"bufferFraction,omitempty"`
	PartitionCuts  int       `json:"partitionCuts,omitempty"`
	VocabSize      int       `json:"vocabSize"`
	// WALLSN is the last write-ahead-log record this snapshot includes;
	// replay resumes after it (format 3, zero when no log was attached).
	WALLSN uint64 `json:"walLSN,omitempty"`
	// Allocated and Tombstones reconstruct the object ID space: the
	// snapshot's objects file stores live objects densely, and OpenPath
	// reinstates the tombstoned IDs between them (format 3).
	Allocated  int        `json:"allocated,omitempty"`
	Tombstones []ObjectID `json:"tombstones,omitempty"`
	// OracleLandmarks and OracleSeed record the landmark distance oracle
	// the database ran with (zero when none): OpenPath re-enables the
	// oracle, loading the snapshot's "oracle" file when it validates and
	// rebuilding from the graph when it does not. The oracle file is
	// self-checksummed and deliberately outside the manifest's verified
	// set — damage to it degrades to a rebuild, never to ErrBadSnapshot.
	OracleLandmarks int    `json:"oracleLandmarks,omitempty"`
	OracleSeed      uint64 `json:"oracleSeed,omitempty"`
}

const (
	// dbMetaFormat is the snapshot format SaveTo writes.
	dbMetaFormat = 3
	// dbMetaFormatV2 adds the manifest but reassigns object IDs densely
	// on load and carries no write-ahead-log linkage.
	dbMetaFormatV2 = 2
	// dbMetaFormatV1 is the legacy layout: same files, no manifest, no
	// durability guarantees. OpenPath still reads it.
	dbMetaFormatV1 = 1
)

// snapshotCRC is the CRC32C polynomial used for snapshot file checksums.
var snapshotCRC = crc32.MakeTable(crc32.Castagnoli)

// manifestEntry records one snapshot file's expected size and checksum.
type manifestEntry struct {
	Size   int64  `json:"size"`
	CRC32C uint32 `json:"crc32c"`
}

// manifest is the integrity record of a format-2 snapshot, written last
// during SaveTo and verified first during OpenPath.
type manifest struct {
	Format int                      `json:"format"`
	Files  map[string]manifestEntry `json:"files"`
}

// snapshotFiles are the files a manifest must cover.
var snapshotFiles = []string{"graph", "objects", "meta.json"}

// saveHook, when non-nil, is consulted at each named commit point of
// SaveTo; a non-nil return aborts the save at exactly that point,
// simulating a crash (staged state is deliberately left behind, as a real
// crash would leave it). Test-only; production saves never set it.
var saveHook func(point string) error

// saveHookPoints enumerates SaveTo's crash points in execution order, for
// tests that crash a save at every one of them.
var saveHookPoints = []string{
	"begin",
	"write-graph",
	"write-objects",
	"write-meta",
	"write-oracle",
	"write-manifest",
	"sync-staging",
	"rename-prev",
	"rename-new",
	"sync-parent",
	"cleanup-prev",
}

// errSimulatedCrash distinguishes a saveHook-triggered abort (leave the
// staged wreckage for the test to inspect) from an ordinary I/O failure
// (clean it up).
type errSimulatedCrash struct{ err error }

func (e *errSimulatedCrash) Error() string { return e.err.Error() }
func (e *errSimulatedCrash) Unwrap() error { return e.err }

func fireSaveHook(point string) error {
	if saveHook == nil {
		return nil
	}
	if err := saveHook(point); err != nil {
		return &errSimulatedCrash{err: err}
	}
	return nil
}

// countingWriter tracks how many bytes passed through it.
type countingWriter struct{ n int64 }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

// writeSnapshotFile creates path, streams write's output through a CRC32C
// hasher, then flushes, fsyncs and closes the file — checking every one of
// those returns, because a snapshot whose bytes never reached the medium
// is worse than a failed save.
func writeSnapshotFile(path string, write func(io.Writer) error) (manifestEntry, error) {
	f, err := os.Create(path)
	if err != nil {
		return manifestEntry{}, err
	}
	h := crc32.New(snapshotCRC)
	cw := &countingWriter{}
	bw := bufio.NewWriter(io.MultiWriter(f, h, cw))
	if err := write(bw); err != nil {
		f.Close()
		return manifestEntry{}, err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return manifestEntry{}, fmt.Errorf("dsks: flushing %s: %w", filepath.Base(path), err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return manifestEntry{}, fmt.Errorf("dsks: syncing %s: %w", filepath.Base(path), err)
	}
	if err := f.Close(); err != nil {
		return manifestEntry{}, fmt.Errorf("dsks: closing %s: %w", filepath.Base(path), err)
	}
	return manifestEntry{Size: cw.n, CRC32C: h.Sum32()}, nil
}

// SaveTo snapshots the database into dir (created if needed): the road
// network, every live object, the options required to rebuild the same
// index structure on OpenPath, and a manifest with per-file checksums.
//
// The snapshot is staged in a temporary sibling directory and swapped in
// with atomic renames, each stage fsynced, so a crash mid-save leaves the
// previous snapshot intact (briefly under dir+".prev" during the swap
// window; OpenPath falls back to it automatically). SaveTo takes the
// database's read latch, so the snapshot is consistent with respect to
// concurrent Insert and Remove; MVCC read views are unaffected — they
// answer from pinned page versions and never touch the latch
// (TestViewPinnedAcrossSaveAndCheckpoint races both under -race).
//
// With a write-ahead log attached, the snapshot records the last log
// record it includes and then checkpoints the log: the active segment is
// rotated and every segment the snapshot made redundant is deleted. The
// checkpoint runs after the latch is released — a crash in between only
// leaves extra log records that the next OpenPath replays idempotently
// (they are at or below the snapshot's recorded LSN, so they are
// skipped).
func (db *DB) SaveTo(dir string) error {
	// Serialize the oracle before taking the read latch: its page reads
	// can block on I/O, and it depends only on the frozen network
	// topology, which no mutation can change.
	var oracleBytes []byte
	if o := db.eng.Oracle; o != nil {
		var buf bytes.Buffer
		if err := o.WriteTo(context.Background(), &buf); err != nil {
			return fmt.Errorf("dsks: serializing oracle: %w", err)
		}
		oracleBytes = buf.Bytes()
	}
	walLSN, err := db.saveSnapshot(dir, oracleBytes)
	if err != nil {
		return err
	}
	if db.wal != nil {
		if err := db.wal.Checkpoint(walLSN); err != nil {
			return fmt.Errorf("dsks: checkpointing wal after snapshot: %w", err)
		}
	}
	return nil
}

// saveSnapshot writes the snapshot under the read latch and returns the
// applied LSN it captured; the log checkpoint happens in SaveTo, after
// the latch is released (an fsync-heavy compaction must not block
// mutators).
func (db *DB) saveSnapshot(dir string, oracleBytes []byte) (walLSN uint64, err error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	walLSN = db.appliedLSN

	parent := filepath.Dir(dir)
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return 0, err
	}
	if err := fireSaveHook("begin"); err != nil {
		return 0, err
	}
	tmp, err := os.MkdirTemp(parent, ".dsks-save-*")
	if err != nil {
		return 0, err
	}
	committed := false
	defer func() {
		if !committed {
			os.RemoveAll(tmp)
		}
	}()

	// fail routes every error return through one place: a simulated crash
	// (saveHook firing) leaves the staged directory behind, as a real
	// crash would, while ordinary failures let the defer clean it up.
	fail := func(e error) error {
		var crash *errSimulatedCrash
		if asCrash(e, &crash) {
			committed = true
		}
		return e
	}

	files := make(map[string]manifestEntry, len(snapshotFiles))

	if err := fireSaveHook("write-graph"); err != nil {
		return 0, fail(err)
	}
	ent, err := writeSnapshotFile(filepath.Join(tmp, "graph"), func(w io.Writer) error {
		if err := graph.Write(w, db.eng.Graph); err != nil {
			return fmt.Errorf("dsks: saving graph: %w", err)
		}
		return nil
	})
	if err != nil {
		return 0, fail(err)
	}
	files["graph"] = ent

	if err := fireSaveHook("write-objects"); err != nil {
		return 0, fail(err)
	}
	ent, err = writeSnapshotFile(filepath.Join(tmp, "objects"), func(w io.Writer) error {
		if err := dataset.WriteObjects(w, db.eng.Objects, db.eng.VocabSize); err != nil {
			return fmt.Errorf("dsks: saving objects: %w", err)
		}
		return nil
	})
	if err != nil {
		return 0, fail(err)
	}
	files["objects"] = ent

	if err := fireSaveHook("write-meta"); err != nil {
		return 0, fail(err)
	}
	col := db.eng.Objects
	meta := dbMeta{
		Format:         dbMetaFormat,
		Index:          db.eng.Kind,
		BufferFraction: db.eng.Opts.BufferFraction,
		PartitionCuts:  db.eng.Opts.PartitionCuts,
		VocabSize:      db.eng.VocabSize,
		WALLSN:         walLSN,
		Allocated:      col.Len(),
		Tombstones:     col.Tombstones(),
	}
	if o := db.eng.Oracle; o != nil {
		meta.OracleLandmarks = o.NumLandmarks()
		meta.OracleSeed = o.Seed()
	}
	ent, err = writeSnapshotFile(filepath.Join(tmp, "meta.json"), func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(meta)
	})
	if err != nil {
		return 0, fail(err)
	}
	files["meta.json"] = ent

	if err := fireSaveHook("write-oracle"); err != nil {
		return 0, fail(err)
	}
	if oracleBytes != nil {
		// The oracle file rides in the manifest's file map for visibility
		// but stays off the verified list (snapshotFiles): it carries its
		// own header checksum, and a damaged oracle must degrade to a
		// rebuild, not fail the snapshot.
		ent, err = writeSnapshotFile(filepath.Join(tmp, "oracle"), func(w io.Writer) error {
			_, werr := w.Write(oracleBytes)
			return werr
		})
		if err != nil {
			return 0, fail(err)
		}
		files["oracle"] = ent
	}

	if err := fireSaveHook("write-manifest"); err != nil {
		return 0, fail(err)
	}
	if _, err := writeSnapshotFile(filepath.Join(tmp, "manifest.json"), func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(manifest{Format: dbMetaFormat, Files: files})
	}); err != nil {
		return 0, fail(err)
	}

	if err := fireSaveHook("sync-staging"); err != nil {
		return 0, fail(err)
	}
	if err := storage.SyncDir(tmp); err != nil {
		return 0, fail(err)
	}

	// Swap: move any previous snapshot aside, move the staged one in, make
	// the renames durable, then drop the old snapshot. A crash between the
	// two renames leaves only dir+".prev", which OpenPath falls back to.
	prev := dir + ".prev"
	if err := fireSaveHook("rename-prev"); err != nil {
		return 0, fail(err)
	}
	if _, serr := os.Stat(dir); serr == nil {
		os.RemoveAll(prev) // leftover from an earlier crashed save
		if err := os.Rename(dir, prev); err != nil {
			return 0, fail(err)
		}
	}
	if err := fireSaveHook("rename-new"); err != nil {
		return 0, fail(err)
	}
	if err := os.Rename(tmp, dir); err != nil {
		return 0, fail(err)
	}
	committed = true
	if err := fireSaveHook("sync-parent"); err != nil {
		return 0, err
	}
	if err := storage.SyncDir(parent); err != nil {
		return 0, err
	}
	if err := fireSaveHook("cleanup-prev"); err != nil {
		return 0, err
	}
	return walLSN, os.RemoveAll(prev)
}

// asCrash reports whether e (or anything it wraps) is a simulated crash.
func asCrash(e error, out **errSimulatedCrash) bool {
	for e != nil {
		if c, ok := e.(*errSimulatedCrash); ok {
			*out = c
			return true
		}
		u, ok := e.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		e = u.Unwrap()
	}
	return false
}

// SaveVocabulary writes a Vocabulary next to a saved database (SaveTo does
// not persist it — the index stores TermIDs only) so that keyword strings
// resolve identically after OpenPath. The write is fsynced and its Close
// checked, like the snapshot files (the vocabulary is written after the
// snapshot swap, so it is not covered by the manifest).
func SaveVocabulary(dir string, v *Vocabulary) error {
	_, err := writeSnapshotFile(filepath.Join(dir, "vocabulary"), func(w io.Writer) error {
		return v.Write(w)
	})
	return err
}

// LoadVocabulary reads a vocabulary saved with SaveVocabulary.
func LoadVocabulary(dir string) (*Vocabulary, error) {
	f, err := os.Open(filepath.Join(dir, "vocabulary"))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return obj.ReadVocabulary(bufio.NewReader(f))
}

// verifySnapshotFile re-reads path and checks its size and CRC32C against
// the manifest entry.
func verifySnapshotFile(path string, want manifestEntry) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("%w: missing snapshot file %s: %w", ErrBadSnapshot, filepath.Base(path), err)
	}
	defer f.Close()
	h := crc32.New(snapshotCRC)
	n, err := io.Copy(h, f)
	if err != nil {
		return fmt.Errorf("%w: reading snapshot file %s: %w", ErrBadSnapshot, filepath.Base(path), err)
	}
	if n != want.Size {
		return fmt.Errorf("%w: snapshot file %s is %d bytes, manifest says %d",
			ErrBadSnapshot, filepath.Base(path), n, want.Size)
	}
	if got := h.Sum32(); got != want.CRC32C {
		return fmt.Errorf("%w: snapshot file %s checksum %08x, manifest says %08x",
			ErrBadSnapshot, filepath.Base(path), got, want.CRC32C)
	}
	return nil
}

// verifyManifest loads dir's manifest and checks every covered file
// before any of them is parsed. wantFormat is the format meta.json
// declared; the manifest must agree.
func verifyManifest(dir string, wantFormat int) error {
	mf, err := os.Open(filepath.Join(dir, "manifest.json"))
	if err != nil {
		return fmt.Errorf("%w: missing manifest.json: %w", ErrBadSnapshot, err)
	}
	defer mf.Close()
	var m manifest
	if err := json.NewDecoder(mf).Decode(&m); err != nil {
		return fmt.Errorf("%w: reading manifest.json: %w", ErrBadSnapshot, err)
	}
	if m.Format != wantFormat {
		return fmt.Errorf("%w: manifest format %d does not match snapshot format %d",
			ErrBadSnapshot, m.Format, wantFormat)
	}
	for _, name := range snapshotFiles {
		want, ok := m.Files[name]
		if !ok {
			return fmt.Errorf("%w: manifest does not cover %s", ErrBadSnapshot, name)
		}
		if err := verifySnapshotFile(filepath.Join(dir, name), want); err != nil {
			return err
		}
	}
	return nil
}

// OpenPath restores a database saved with SaveTo, rebuilding the index
// structures. opts fields that are zero keep the persisted configuration;
// a non-empty opts.Index overrides the saved index kind, which is how a
// snapshot of a kind no longer served (IR) is opened.
//
// Format-2 and format-3 snapshots are verified against their manifest
// (per-file size and CRC32C) before anything is parsed; format-1
// snapshots are read without verification. Any unreadable, truncated,
// mismatched or unrecognized snapshot fails with an error matching
// ErrBadSnapshot (the underlying cause also remains reachable through
// errors.Is/As). If dir itself is missing but a dir+".prev" left by a
// crashed save exists, the previous snapshot is opened instead.
//
// With opts.WALDir set, the write-ahead log there is replayed over the
// snapshot: format-3 snapshots record the LSN they already include, so
// only the log's tail is applied (replay is idempotent across repeated
// crashes). A log that contradicts the snapshot fails with an error
// matching ErrBadWAL.
func OpenPath(dir string, opts Options) (*DB, error) {
	if _, err := os.Stat(dir); os.IsNotExist(err) {
		if _, perr := os.Stat(dir + ".prev"); perr == nil {
			// A save crashed between its two renames; fall back to the
			// snapshot it was replacing.
			dir = dir + ".prev"
		}
	}
	mf, err := os.Open(filepath.Join(dir, "meta.json"))
	if err != nil {
		return nil, fmt.Errorf("%w: missing meta.json: %w", ErrBadSnapshot, err)
	}
	var meta dbMeta
	derr := json.NewDecoder(mf).Decode(&meta)
	mf.Close()
	if derr != nil {
		return nil, fmt.Errorf("%w: reading meta.json: %w", ErrBadSnapshot, derr)
	}
	switch meta.Format {
	case dbMetaFormatV1:
		// Legacy layout: same files, no manifest to verify.
	case dbMetaFormatV2, dbMetaFormat:
		if err := verifyManifest(dir, meta.Format); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("%w: unsupported format version %d", ErrBadSnapshot, meta.Format)
	}
	// meta.json's configuration gets the caller's options check, and what
	// fails it is a bad snapshot. The caller's non-zero fields win (an IR
	// snapshot opens with Options.Index set).
	saved := Options{
		BufferFraction: meta.BufferFraction,
		PartitionCuts:  meta.PartitionCuts,
		Landmarks:      meta.OracleLandmarks,
		OracleSeed:     meta.OracleSeed,
	}
	if opts.Index == "" {
		saved.Index = meta.Index
	}
	if err := saved.Validate(); err != nil {
		return nil, fmt.Errorf("%w: meta.json: %v", ErrBadSnapshot, err)
	}
	opts.Index = cmp.Or(opts.Index, saved.Index)
	opts.BufferFraction = cmp.Or(opts.BufferFraction, saved.BufferFraction)
	opts.PartitionCuts = cmp.Or(opts.PartitionCuts, saved.PartitionCuts)
	// A snapshot that carried an oracle re-enables it, and the saved
	// landmark count and seed stand unless opts sets them, so the
	// snapshot's oracle file loads; if it is missing, truncated, corrupt
	// or mismatched, the engine rebuilds the oracle from the graph.
	opts.Oracle = opts.Oracle || saved.Landmarks > 0
	opts.Landmarks = cmp.Or(opts.Landmarks, saved.Landmarks)
	opts.OracleSeed = cmp.Or(opts.OracleSeed, saved.OracleSeed)
	gf, err := os.Open(filepath.Join(dir, "graph"))
	if err != nil {
		return nil, fmt.Errorf("%w: missing graph: %w", ErrBadSnapshot, err)
	}
	defer gf.Close()
	g, err := graph.Read(bufio.NewReader(gf))
	if err != nil {
		return nil, fmt.Errorf("%w: reading graph: %w", ErrBadSnapshot, err)
	}
	of, err := os.Open(filepath.Join(dir, "objects"))
	if err != nil {
		return nil, fmt.Errorf("%w: missing objects: %w", ErrBadSnapshot, err)
	}
	defer of.Close()
	col, vocab, err := dataset.ReadObjects(bufio.NewReader(of))
	if err != nil {
		return nil, fmt.Errorf("%w: reading objects: %w", ErrBadSnapshot, err)
	}
	if vocab != meta.VocabSize {
		return nil, fmt.Errorf("%w: vocabulary size mismatch: objects %d vs meta %d", ErrBadSnapshot, vocab, meta.VocabSize)
	}
	if meta.Format >= dbMetaFormat && meta.Allocated > 0 {
		col, err = restoreIDSpace(col, meta.Allocated, meta.Tombstones)
		if err != nil {
			return nil, err
		}
	}
	return openDB(g, col, vocab, opts, meta.WALLSN, filepath.Join(dir, "oracle"))
}

// restoreIDSpace rebuilds the collection with its original object IDs.
// The snapshot's objects file stores the live objects densely (in ID
// order); allocated and tombstones say where the holes were, so the
// rebuilt collection assigns every surviving object its pre-snapshot ID
// and re-tombstones the removed ones. Write-ahead-log records replayed
// on top then address exactly the IDs they were logged against.
// tombstones must ascend strictly within [0, allocated), as SaveTo writes
// them; one pass checks that while it places the objects around them.
func restoreIDSpace(col *Collection, allocated int, tombstones []ObjectID) (*Collection, error) {
	if col.Len()+len(tombstones) != allocated {
		return nil, fmt.Errorf("%w: %d live objects and %d tombstones do not fill %d allocated IDs",
			ErrBadSnapshot, col.Len(), len(tombstones), allocated)
	}
	out := NewCollection()
	out.Grow(allocated)
	next := ObjectID(0) // next dense snapshot ID to place
	// place adds live objects up to (not including) ID end. The loop
	// below checks each tombstone before placing up to it, so next stays
	// within col.
	place := func(end int) {
		for out.Len() < end {
			o := col.Get(next)
			out.Add(o.Pos, o.Terms)
			next++
		}
	}
	for i, id := range tombstones {
		// Tombstone i at ID id has id-i live objects below it, and the
		// later tombstones need IDs above it: id > col.Len()+i (the same
		// as id > allocated-len(tombstones)+i) leaves them too few.
		if id < 0 || int(id) > col.Len()+i || (i > 0 && id <= tombstones[i-1]) {
			return nil, fmt.Errorf("%w: tombstone %d is ID %d: %d tombstones must ascend strictly within %d allocated IDs",
				ErrBadSnapshot, i, id, len(tombstones), allocated)
		}
		place(int(id))
		out.Pad(int(id) + 1)
	}
	place(allocated)
	return out, nil
}
