// Package dsks is a library for diversified spatial keyword search on road
// networks, reproducing Zhang et al., "Diversified Spatial Keyword Search
// On Road Networks" (EDBT 2014).
//
// A database is built from a road network (a weighted graph whose edges
// are road segments) and a set of spatio-textual objects lying on those
// edges. Boolean spatial keyword queries retrieve the objects within a
// network-distance range that contain every query keyword (SKQuery);
// diversified queries additionally select the k results maximizing a
// bi-criteria objective that trades network-distance relevance against
// pairwise spatial diversity (DivQuery). Every family runs through one
// method, DB.Query or View.Query.
//
// The disk-resident setting of the paper is simulated faithfully: the
// network is stored in CCAM pages, objects in a signature-enhanced
// inverted file, and all page reads flow through an LRU buffer pool whose
// misses are reported as disk accesses.
//
// Every query takes a context and honors its cancellation and deadline: the
// network expansion checks the context between steps and before every
// simulated disk read, so a canceled query stops promptly and returns an
// error matching ErrCanceled or ErrDeadlineExceeded under errors.Is. Every
// query family and every stream is accounted on one path: per-query
// latencies, work counters and buffer-pool hit rates are aggregated in a
// lock-free metrics registry (Metrics, Snapshot), and per-query stage
// timings can be observed with SetTraceHook.
//
// Quick start:
//
//	g := dsks.NewGraph()
//	a := g.AddNode(dsks.Point{X: 0, Y: 0})
//	b := g.AddNode(dsks.Point{X: 100, Y: 0})
//	road, _ := g.AddEdge(a, b, 100)
//	g.Freeze()
//
//	vocab := dsks.NewVocabulary()
//	objects := dsks.NewCollection()
//	objects.Add(dsks.Position{Edge: road, Offset: 40},
//	    vocab.InternAll([]string{"pancake", "lobster"}))
//
//	db, _ := dsks.Open(g, objects, vocab.Size(), dsks.Options{})
//	terms, _ := vocab.LookupAll([]string{"pancake", "lobster"})
//	res, _ := db.Query(ctx, dsks.DivQuery{
//	    SKQuery: dsks.SKQuery{
//	        Pos: dsks.Position{Edge: road, Offset: 0}, Terms: terms, DeltaMax: 500,
//	    },
//	    K: 2, Lambda: 0.8,
//	})
package dsks

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"dsks/internal/alt"
	"dsks/internal/core"
	"dsks/internal/engine"
	"dsks/internal/geo"
	"dsks/internal/graph"
	"dsks/internal/index"
	"dsks/internal/metrics"
	"dsks/internal/obj"
	"dsks/internal/storage"
	"dsks/internal/wal"
)

// Re-exported building blocks. The aliases keep one canonical definition
// in the internal packages while giving library users a single import.
type (
	// Point is a planar location in the [0, 10000]² world space.
	Point = geo.Point
	// Graph is the road network under construction or query.
	Graph = graph.Graph
	// NodeID identifies a road intersection.
	NodeID = graph.NodeID
	// EdgeID identifies a road segment.
	EdgeID = graph.EdgeID
	// Position locates a point on the network: an edge plus the geometric
	// offset from the edge's reference node.
	Position = graph.Position
	// TermID identifies a keyword in a Vocabulary.
	TermID = obj.TermID
	// ObjectID identifies a spatio-textual object in a Collection.
	ObjectID = obj.ID
	// Vocabulary maps keyword strings to TermIDs.
	Vocabulary = obj.Vocabulary
	// Collection is the object set of a database.
	Collection = obj.Collection
	// SKQuery is a boolean spatial keyword query.
	SKQuery = core.SKQuery
	// DivQuery is a diversified spatial keyword query.
	DivQuery = core.DivQuery
	// Candidate is a qualifying object with its network distance.
	Candidate = core.Candidate
	// TermSet is the set of query terms an OR stream's candidate contains,
	// as positions in the query's sorted terms (Stream.Terms).
	TermSet = index.TermSet
	// SearchStats are the per-query cost counters.
	SearchStats = core.SearchStats
	// Trace holds one query's stage timings: network expansion, posting
	// reads, and greedy diversification.
	Trace = core.Trace
)

// Observability aliases: the metrics registry and its snapshot types.
type (
	// MetricsRegistry aggregates query samples by kind; obtain the
	// database's registry with DB.Metrics.
	MetricsRegistry = metrics.Registry
	// MetricsSnapshot is a point-in-time view of the registry: per-kind
	// latency quantiles and work counters, plus buffer-pool hit rates.
	MetricsSnapshot = metrics.Snapshot
	// QuerySnapshot is the aggregated view of one query kind.
	QuerySnapshot = metrics.QuerySnapshot
	// PoolSnapshot is the read-counter view of one buffer pool.
	PoolSnapshot = metrics.PoolSnapshot
	// QueryKind labels the query families the engine serves.
	QueryKind = metrics.QueryKind
	// TraceHook observes per-query stage timings; install with
	// DB.SetTraceHook.
	TraceHook = engine.TraceHook
)

// The query kinds appearing in metrics snapshots.
const (
	KindSearch      = metrics.KindSearch
	KindDiversified = metrics.KindDiversified
	KindKNN         = metrics.KindKNN
	KindRanked      = metrics.KindRanked
	KindCollective  = metrics.KindCollective
	KindStream      = metrics.KindStream
)

// Sentinel errors. Query errors wrap both the dsks sentinel and the
// underlying context error, so errors.Is(err, dsks.ErrCanceled) and
// errors.Is(err, context.Canceled) both hold for a canceled query.
var (
	// ErrCanceled reports a query aborted because its context was canceled.
	ErrCanceled = core.ErrCanceled
	// ErrDeadlineExceeded reports a query aborted because its context's
	// deadline passed.
	ErrDeadlineExceeded = core.ErrDeadlineExceeded
	// ErrUnknownObject reports an ObjectID that does not name a live object.
	ErrUnknownObject = errors.New("dsks: unknown object")
	// ErrUnknownEdge reports an EdgeID outside the road network, for a
	// query, an insert, a network distance or a route alike.
	ErrUnknownEdge = graph.ErrUnknownEdge
	// ErrTermOutOfRange reports a TermID at or beyond the vocabulary size.
	ErrTermOutOfRange = engine.ErrTermOutOfRange
	// ErrBadOptions reports invalid Options passed to Open.
	ErrBadOptions = engine.ErrBadOptions
	// ErrBadSnapshot reports a saved database directory that OpenPath
	// cannot restore (unknown format version, corrupt or mismatched files).
	ErrBadSnapshot = errors.New("dsks: invalid database snapshot")
	// ErrBadOracle reports a persisted landmark-oracle file that failed
	// validation (truncation, corruption, or a landmark count/seed that
	// contradicts the snapshot). It never surfaces from OpenPath — a bad
	// oracle file is discarded and the oracle rebuilt from the graph —
	// but internal load paths and tests match against it.
	ErrBadOracle = alt.ErrBadOracle
	// ErrCorruptPage reports a disk page whose bytes failed checksum
	// verification (with Options.Checksums enabled): the storage layer
	// detected silent corruption and refused to serve the page.
	ErrCorruptPage = storage.ErrCorruptPage
	// ErrBadWAL reports a write-ahead log that cannot be trusted: a CRC
	// mismatch or truncation before the final record, a gap in the LSN
	// chain, or a replayed record that contradicts the snapshot it is
	// applied over. (A torn tail — an incomplete final record a crash
	// left behind — is repaired silently, not an error.)
	ErrBadWAL = wal.ErrCorrupt
	// ErrWALClosed reports a mutation on a database whose write-ahead
	// log has been closed or poisoned by an unrecoverable log failure.
	ErrWALClosed = wal.ErrClosed
	// ErrNoPath reports a route request between positions that no chain of
	// road segments connects.
	ErrNoPath = graph.ErrNoPath
)

// NewGraph returns an empty road network; add nodes and edges, then call
// Freeze before opening a database over it.
func NewGraph() *Graph { return graph.New() }

// NewVocabulary returns an empty keyword dictionary.
func NewVocabulary() *Vocabulary { return obj.NewVocabulary() }

// NewCollection returns an empty object set.
func NewCollection() *Collection { return obj.NewCollection() }

// IndexKind selects the object index structure backing a database.
type IndexKind = engine.IndexKind

// The available index structures, in increasing pruning power: the plain
// inverted file, the signature-enhanced inverted file, and the
// partition-refined signatures.
const (
	IndexIF   = engine.KindIF
	IndexSIF  = engine.KindSIF
	IndexSIFP = engine.KindSIFP
)

// Options configures a database: the index kind, the buffer pools, the
// write-ahead log (WALDir) and the landmark oracle. Zero values take the
// documented defaults; Validate rejects the values no database can take,
// with an error matching ErrBadOptions.
type Options = engine.Options

// DB is an opened database: the disk-resident road network and object
// index, ready for queries. Reads and writes follow a single-writer /
// many-readers MVCC protocol: every query pins an immutable version of the
// database (a View) and runs against it latch-free, while mutations build
// the next version off to the side — cloning only the pages and roots they
// touch — and publish it with one atomic pointer swap stamped with the
// commit LSN. A query therefore observes the database exactly as of one
// published LSN, and a mutation burst never blocks the read path (see
// docs/CONCURRENCY.md for the full protocol).
//
// Open a View explicitly for multi-query consistency, or call the one-shot
// query methods — one per family, each with the signature of the View
// method it opens a view for — which open and close a view per call.
//
// A DB stands on one internal/engine.Engine (the network, one object
// index, the pools, the run path every query is accounted on) and adds
// what makes it a database: versions, views and the commit protocol.
type DB struct {
	eng *engine.Engine

	// mu serializes mutators (Insert/Remove and WAL replay): one writer at
	// a time builds and publishes the next version. It also protects the
	// in-memory collection. Queries never take it — they read the roots
	// pointer below.
	mu sync.RWMutex

	// roots is the current published version: index root sets plus the
	// commit LSN that produced them. Readers load it with one atomic read
	// and pin its LSN in epochs; mutators (under mu) replace it after
	// publishing their copy-on-write pages.
	roots atomic.Pointer[dbRoots]
	// epochs tracks which LSNs live views have pinned; superseded page
	// versions are folded into the base file only once no view pins them.
	epochs storage.Epochs
	// foldMu serializes physical folds (reclaim), so an older fold can
	// never overwrite the bytes of a newer one.
	foldMu sync.Mutex

	// wal is the write-ahead log, nil unless Options.WALDir was set.
	// Mutators append under mu (so LSN order equals apply order) but wait
	// for durability outside it — an fsync never stalls queries.
	wal *wal.Log
	// appliedLSN is the last log record applied to the in-memory state;
	// written under mu.Lock. SaveTo records it in the snapshot so replay
	// can skip what the snapshot contains.
	appliedLSN uint64
}

// Open builds the disk-resident structures for the given road network and
// object collection. vocabSize must be at least one greater than the
// largest TermID used by the collection. Invalid Options are rejected with
// an error matching ErrBadOptions.
//
// With Options.WALDir set, any existing log there is replayed over the
// built state (so a database that crashed before its first SaveTo
// recovers by opening the same graph and collection again); an
// untrustworthy log fails with an error matching ErrBadWAL.
func Open(g *Graph, objects *Collection, vocabSize int, opts Options) (*DB, error) {
	return openDB(g, objects, vocabSize, opts, 0, "")
}

// openDB is Open plus the write-ahead-log linkage (walFrom is the LSN the
// opened state already includes — a snapshot's recorded LSN, or zero) and
// the snapshot-restore linkage (oraclePath is a persisted oracle file to
// load instead of rebuilding, or empty).
func openDB(g *Graph, objects *Collection, vocabSize int, opts Options, walFrom uint64, oraclePath string) (*DB, error) {
	if g == nil || objects == nil {
		return nil, fmt.Errorf("%w: nil graph or collection", ErrBadOptions)
	}
	eng, err := engine.Open(g, objects, vocabSize, opts, oraclePath)
	if err != nil {
		return nil, err
	}
	db := &DB{eng: eng}
	// The freshly built index state is version zero (or walFrom, when the
	// built state already includes a snapshot's mutations).
	db.roots.Store(&dbRoots{lsn: walFrom, live: objects.Live(), idx: eng.Versions.Roots()})
	if opts.WALDir != "" {
		if err := db.attachWAL(opts, walFrom); err != nil {
			return nil, err
		}
	}
	return db, nil
}

// attachWAL opens the log, replays the records past walFrom over the
// database, and leaves the log attached for Insert/Remove to append to.
func (db *DB) attachWAL(opts Options, walFrom uint64) error {
	l, records, err := wal.Open(opts.WALDir, walFrom, wal.Options{Metrics: db.eng.Metrics})
	if err != nil {
		return fmt.Errorf("dsks: opening wal: %w", err)
	}
	db.wal = l
	db.appliedLSN = walFrom
	for _, r := range records {
		if err := db.replay(r); err != nil {
			l.Close()
			return err
		}
	}
	return nil
}

// replay applies one logged record — read back from the database's own
// log at open, or shipped from a primary — over the in-memory state. It
// runs a live mutation's check and apply, and additionally checks that an
// insert was logged over exactly the collection length it finds, and so
// reassigns exactly the object ID the log recorded: any divergence means
// the log does not belong to the opened state, and fails with an error
// matching ErrBadWAL before anything changes.
func (db *DB) replay(r wal.Record) error {
	err := db.check(r)
	if n := db.eng.Objects.Len(); err == nil && r.Type == wal.RecInsert && (r.Skipped < 0 || int(r.ID-r.Skipped) != n) {
		err = fmt.Errorf("the log recorded object %d over %d IDs where the collection holds %d", r.ID, r.ID-r.Skipped, n)
	}
	if err != nil {
		return fmt.Errorf("%w: replaying LSN %d: %w", ErrBadWAL, r.LSN, err)
	}
	if err := db.apply(r); err != nil {
		return fmt.Errorf("dsks: replaying LSN %d: %w", r.LSN, err)
	}
	db.appliedLSN = r.LSN
	return nil
}

// Close releases the database's durability resources: the write-ahead
// log is drained through a final fsync and closed (a poisoned log
// returns its sticky error). Queries remain servable afterwards, but
// mutations fail with an error matching ErrWALClosed. Databases opened
// without Options.WALDir have nothing to release; Close is then a no-op.
func (db *DB) Close() error {
	if db.wal == nil {
		return nil
	}
	return db.wal.Close()
}

// Metrics returns the database's metrics registry. Queries record into it
// automatically; Reset zeroes the aggregates.
func (db *DB) Metrics() *MetricsRegistry { return db.eng.Metrics }

// DistanceOracle is the read interface of the database's landmark
// distance oracle (see Options.Oracle and docs/DISTANCE.md).
type DistanceOracle = core.LandmarkOracle

// DistanceOracle returns the database's landmark oracle, or nil when the
// database runs without one. The oracle depends only on the (immutable)
// road network, so the returned handle stays valid across mutations; the
// shard router attaches it to its cross-shard merge engine.
func (db *DB) DistanceOracle() DistanceOracle {
	if db.eng.Oracle == nil {
		return nil
	}
	return db.eng.Oracle
}

// Snapshot captures the metrics registry: per-kind query counts, latency
// quantiles (p50/p95/p99), work counters, and buffer-pool hit rates.
func (db *DB) Snapshot() MetricsSnapshot { return db.eng.Metrics.Snapshot() }

// SetTraceHook installs (or, with nil, removes) a hook observing each
// query's stage timings. The hook runs synchronously on the query
// goroutine, so it must be fast, and it is called concurrently if queries
// are.
func (db *DB) SetTraceHook(h TraceHook) { db.eng.SetTraceHook(h) }

// Result is a query outcome with its cost metrics. Every query family
// fills the shared fields (Elapsed, DiskReads, Stats, Trace, with
// Trace.Total equal to Elapsed); the payload fields depend on the family:
// boolean, kNN and diversified searches fill Candidates (and F for
// diversified), ranked searches fill Ranked, and collective searches fill
// Collective.
type Result = engine.Result

// Query is a query of one of the five families: SKQuery, DivQuery,
// KNNQuery, RankedQuery or CollectiveQuery. Each family validates itself,
// names the network expansion it reads and computes its answer over that
// expansion's arrivals; DB.Query, View.Query and the sharded router's
// MultiView.Query run every family on that one path. The interface's
// Answer method uses internal types, so only the five families implement
// it.
type Query = core.Query

// Query runs q (see View.Query) against a view opened for the call and
// closed when it returns. Use View directly to run several queries
// against one consistent snapshot.
func (db *DB) Query(ctx context.Context, q Query) (Result, error) {
	v, err := db.View(ctx)
	if err != nil {
		return Result{}, err
	}
	defer v.Close()
	return v.Query(ctx, q)
}

// KNNQuery is a k-nearest-neighbor boolean spatial keyword query: the K
// closest objects containing every keyword, with an optional distance cap.
// Its expansion stops as soon as the k-th match is emitted.
type KNNQuery = core.KNNQuery

// RankedQuery is a top-k ranked spatial keyword query: objects scored by
// α·spatial-proximity + (1−α)·keyword-overlap, OR semantics. Its Result
// carries the scored objects in Ranked.
type RankedQuery = core.RankedQuery

// RankedResult is one scored object of a ranked query.
type RankedResult = core.RankedResult

// CollectiveQuery asks for a *group* of objects that together cover every
// query keyword at minimal total network distance (the collective spatial
// keyword search of Cao et al., which the paper's related work discusses),
// chosen with the ln|T|-approximate weighted set-cover greedy. Its Result
// carries the group in Collective.
type CollectiveQuery = core.CollectiveQuery

// CollectiveResult is a chosen keyword-covering group.
type CollectiveResult = core.CollectiveResult

// Stream is an incremental boolean search: candidates are pulled one at a
// time in non-decreasing network distance, so a consumer can stop early
// (the access pattern Algorithm 6 exploits internally). It stops with an
// error matching ErrCanceled or ErrDeadlineExceeded once its context ends,
// and it is accounted like any other query — one metrics sample, one trace
// — when it is exhausted, stopped or failed.
//
// A stream reads a pinned snapshot: one obtained from DB.Stream owns a
// private View released when the stream finishes, and one obtained from
// View.Stream reads that view (which must stay open for the stream's
// lifetime). Either way, concurrent Insert/Remove calls neither block the
// stream nor change what it returns.
type Stream = engine.Stream

// Stream starts an incremental boolean search; the context is checked on
// every Next. The stream owns a private view of the current version and
// releases it when exhausted, stopped, or failed.
func (db *DB) Stream(ctx context.Context, q SKQuery) (*Stream, error) {
	v, err := db.View(ctx)
	if err != nil {
		return nil, err
	}
	s, err := v.stream(ctx, q, false, func() { v.Close() })
	if err != nil {
		v.Close()
		return nil, err
	}
	return s, nil
}

// Insert adds a spatio-textual object to an open database: the object
// joins the collection, its postings are appended to the inverted file and
// its keywords' signature bits are set, so subsequent queries see it.
// Terms must be below the vocabulary size the database was opened with.
//
// Insert builds the next database version copy-on-write — private copies
// of every touched index page plus cloned root structures — and publishes
// it with one atomic swap stamped with the commit LSN, so concurrent
// queries are never blocked and never observe a half-applied mutation:
// views opened before the swap keep reading the old version, views opened
// after it see the new one. Concurrent Insert/Remove calls serialize on
// the writer latch. A successful insert publishes a new commit LSN.
//
// With a write-ahead log attached (Options.WALDir), the insert is logged
// before it is applied and acknowledged only once its record is fsynced;
// the durability wait happens after the latch is released, so an fsync
// never stalls anything. A mutation that errors mid-flight after logging
// is indeterminate: it was never acknowledged and never published, but
// the log record exists, so a restart replays it.
func (db *DB) Insert(pos Position, terms []TermID) (ObjectID, error) {
	id, lsn, err := db.InsertAsync(-1, pos, terms)
	if err != nil {
		return 0, err
	}
	if werr := db.WaitDurable(lsn); werr != nil {
		return id, fmt.Errorf("dsks: insert of object %d applied but not durable: %w", id, werr)
	}
	return id, nil
}

// InsertAsync is Insert without the durability wait, under a chosen
// object ID: it appends the WAL record, applies and publishes the
// mutation, and returns the object ID plus the commit LSN immediately —
// before the record is fsynced. A negative id takes the next ID, as
// Insert does; any other id must be at least ObjectCount(), and the IDs
// it skips become tombstones that never held an object. A shard router
// uses it to store each object under its set-wide ID. Callers that need
// the Insert acknowledgment contract follow up with WaitDurable(lsn) once
// they have released any latches of their own; this is the same
// append-under-latch, sync-outside split the DB itself uses internally.
func (db *DB) InsertAsync(id ObjectID, pos Position, terms []TermID) (ObjectID, uint64, error) {
	r := wal.Record{Type: wal.RecInsert, ID: int32(id), Edge: int32(pos.Edge), Offset: pos.Offset, Terms: make([]int32, len(terms))}
	for i, t := range terms {
		r.Terms[i] = int32(t)
	}
	r, err := db.commit(r)
	if err != nil {
		return 0, 0, err
	}
	return ObjectID(r.ID), r.LSN, nil
}

// commit is the one path of a live mutation, under the write latch: r is
// checked, stamped with its commit LSN (an insert also with its object ID
// — the next one when r.ID is negative — the IDs it skipped and its
// clamped offset, so replay can verify it reassigns the same ID),
// appended to the log when one is attached, and applied. It returns the
// stamped record; the durability wait is the caller's, after the latch
// is released.
func (db *DB) commit(r wal.Record) (wal.Record, error) {
	db.mu.Lock()
	if err := db.check(r); err != nil {
		db.mu.Unlock()
		return r, err
	}
	if r.Type == wal.RecInsert {
		n := int32(db.eng.Objects.Len())
		if r.ID < 0 {
			r.ID = n
		} else if r.ID < n {
			db.mu.Unlock()
			return r, fmt.Errorf("dsks: insert as object %d, below the %d IDs already assigned", r.ID, n)
		}
		r.Skipped = r.ID - n
		r.Offset = db.eng.Graph.Clamp(recordPos(r)).Offset
	}
	r.LSN = db.roots.Load().lsn + 1
	if db.wal != nil {
		lsn, err := db.wal.Append(r)
		if err != nil {
			db.mu.Unlock()
			return r, fmt.Errorf("dsks: logging object %d: %w", r.ID, err)
		}
		// The record exists whether or not the apply below succeeds, so
		// snapshots must claim it — replaying it over a state that
		// already allocated the ID would misnumber everything after it.
		r.LSN, db.appliedLSN = lsn, lsn
	}
	err := db.apply(r)
	db.mu.Unlock()
	if err != nil {
		return r, err
	}
	db.reclaim()
	return r, nil
}

// check validates a mutation without changing anything: an insert's
// position and terms (engine.CheckPosTerms), or that a removed object is
// live. Callers hold the write latch.
func (db *DB) check(r wal.Record) error {
	switch r.Type {
	case wal.RecInsert:
		return engine.CheckPosTerms(db.eng.Graph, db.eng.VocabSize, "insert", recordPos(r), recordTerms(r))
	case wal.RecRemove:
		col := db.eng.Objects
		if id := ObjectID(r.ID); id < 0 || int(id) >= col.Len() || col.Removed(id) {
			return fmt.Errorf("dsks: remove object %d: %w", id, ErrUnknownObject)
		}
		return nil
	}
	return fmt.Errorf("dsks: record type %d", r.Type)
}

// apply performs a checked, stamped mutation copy-on-write at the
// record's commit LSN: the index mutation runs against a private page
// batch and cloned roots, and only after it succeeds is the collection
// changed and the new version published (a failed index mutation drops
// the batch unpublished: no reader ever saw anything). The pool installs
// the pages first (invisible — no reader is pinned at the new LSN yet)
// and then runs the root swap that makes the LSN reachable. Signatures
// are unchanged by removes (bits stay set), so the new version shares
// them. Callers hold the write latch.
func (db *DB) apply(r wal.Record) error {
	cur := db.roots.Load()
	col := db.eng.Objects
	id := ObjectID(r.ID)
	batch := db.eng.Pool.NewBatch(r.LSN)
	idx := *cur.idx
	next := &dbRoots{lsn: r.LSN, live: cur.live, idx: &idx}
	if r.Type == wal.RecInsert {
		pos := db.eng.Graph.Clamp(recordPos(r))
		// Collection.Add normalizes terms; the index must see the same set.
		terms := obj.NormalizeTerms(recordTerms(r))
		if err := db.eng.Versions.InsertObjectAt(batch, &idx, id, pos, terms); err != nil {
			return err
		}
		col.Pad(int(id)) // the IDs the insert skipped never held an object
		if got := col.Add(pos, terms); got != id {
			return fmt.Errorf("dsks: insert assigned object %d where the index recorded %d", got, id)
		}
		next.live++
	} else {
		o := col.Get(id)
		if err := db.eng.Versions.RemoveObjectAt(batch, &idx, id, o.Pos.Edge, o.Terms); err != nil {
			return err
		}
		if err := col.Remove(id); err != nil {
			return err
		}
		next.live--
	}
	db.eng.Pool.Publish(batch, func() { db.roots.Store(next) })
	return nil
}

// recordPos and recordTerms decode an insert record's object.
func recordPos(r wal.Record) Position { return Position{Edge: EdgeID(r.Edge), Offset: r.Offset} }

func recordTerms(r wal.Record) []TermID {
	terms := make([]TermID, len(r.Terms))
	for i, t := range r.Terms {
		terms[i] = TermID(t)
	}
	return terms
}

// WaitDurable blocks until the WAL record at lsn is fsynced (group
// commit may batch it with neighbors). Without an attached WAL every
// mutation is as durable as it will ever get, and WaitDurable returns
// nil immediately. It must not be called while holding a latch — it
// waits on a disk sync.
func (db *DB) WaitDurable(lsn uint64) error {
	if db.wal == nil {
		return nil
	}
	return db.wal.WaitDurable(lsn)
}

// WALRecord is one logged mutation, re-exported for replication: a
// primary's log yields WALRecords through TailWAL and a follower
// applies them with ApplyShipped.
type WALRecord = wal.Record

// WALTailer follows a write-ahead log record by record across segment
// rotations; see TailWAL.
type WALTailer = wal.Tailer

// TailWAL returns a tailer over the database's attached write-ahead log
// that yields every durable record past fromLSN in order. The tailer
// reads the segment files directly and never blocks the writer; it
// yields only fsynced records, so a follower can never apply a mutation
// a primary crash could take back. Databases without an attached log
// have nothing to ship and fail with an error matching ErrWALClosed.
func (db *DB) TailWAL(fromLSN uint64) (*WALTailer, error) {
	if db.wal == nil {
		return nil, fmt.Errorf("dsks: tailing a database without a write-ahead log: %w", ErrWALClosed)
	}
	return db.wal.TailFrom(fromLSN), nil
}

// ApplyShipped applies one replicated log record to a follower
// database. It is the apply half of WAL shipping: a read replica tails
// its primary's log (TailWAL) and feeds each record here, converging on
// the primary's state commit by commit. Every applied record publishes
// a new version exactly like a local mutation — concurrent views are
// never blocked and stay pinned at the version they opened.
//
// The follower must not have a write-ahead log of its own (two logs
// would fight over the LSN clock), and records must arrive in LSN order
// with no gaps. Replay re-validates everything the primary validated
// and verifies inserts reassign exactly the object ID the log recorded;
// any divergence fails with an error matching ErrBadWAL and leaves the
// follower at its previous version.
func (db *DB) ApplyShipped(r WALRecord) error {
	db.mu.Lock()
	var err error
	switch want := db.roots.Load().lsn + 1; {
	case db.wal != nil:
		err = fmt.Errorf("%w: shipped record applied to a database with its own log", ErrBadWAL)
	case r.LSN != want:
		err = fmt.Errorf("%w: shipped record at LSN %d where %d was expected", ErrBadWAL, r.LSN, want)
	default:
		err = db.replay(r)
	}
	db.mu.Unlock()
	if err != nil {
		return err
	}
	db.reclaim()
	return nil
}

// reclaim folds page versions every live view has moved past back into
// the base file. Fold errors are ignored here: the overlay stays
// authoritative and the next reclaim retries.
func (db *DB) reclaim() {
	db.foldMu.Lock()
	defer db.foldMu.Unlock()
	h := db.epochs.FoldHorizon(db.roots.Load().lsn)
	_ = db.eng.Pool.FoldTo(h)
}

// Remove deletes an object from an open database: it is tombstoned in the
// collection and its postings leave the inverted file, so queries no
// longer see it. Signature bits are not cleared (sound: a stale bit can
// only cost a false hit).
//
// Remove follows Insert's copy-on-write protocol: the next version is
// built privately and published atomically, so concurrent queries are
// never blocked and views opened earlier still see the object. A
// successful remove publishes a new commit LSN. With a write-ahead log
// attached it is logged before applied and acknowledged once fsynced.
func (db *DB) Remove(id ObjectID) error {
	r, err := db.commit(wal.Record{Type: wal.RecRemove, ID: int32(id)})
	if err != nil {
		return err
	}
	if werr := db.WaitDurable(r.LSN); werr != nil {
		return fmt.Errorf("dsks: remove of object %d applied but not durable: %w", id, werr)
	}
	return nil
}

// Graph exposes the road network the database was opened with. The
// graph is immutable once frozen; callers (the shard router replicates
// it across shard databases) must not modify it.
func (db *DB) Graph() *Graph { return db.eng.Graph }

// VocabSize is the vocabulary size the database was opened with: every
// term a query or an insert names is below it.
func (db *DB) VocabSize() int { return db.eng.VocabSize }

// ObjectCount is the total number of object IDs the database has ever
// allocated, tombstones included (compare LiveObjects).
func (db *DB) ObjectCount() int { return db.eng.Objects.Len() }

// LSN returns the commit LSN of the current published version: the WAL
// LSN of the last applied mutation (databases without a WAL count
// mutations on the same clock). A View opened now is pinned at this LSN
// or a later one.
func (db *DB) LSN() uint64 { return db.roots.Load().lsn }

// LiveObjects returns the number of live (inserted and not removed)
// objects in the current published version (latch-free).
func (db *DB) LiveObjects() int {
	return db.roots.Load().live
}

// PinnedViews returns the number of read views open on the database,
// counting the private view of every unfinished Stream. Each one holds
// back the reclamation of superseded page versions; a count that does not
// return to zero once the requests are done is a view someone forgot to
// Close.
func (db *DB) PinnedViews() int { return db.epochs.Pinned() }

// DurableLSN reports the write-ahead log's durability horizon: every
// mutation at or below it survives a crash. Zero without a log.
func (db *DB) DurableLSN() uint64 {
	if db.wal == nil {
		return 0
	}
	return db.wal.DurableLSN()
}

// NetworkDistance returns the exact network distance between two
// positions (computed in memory; the road network is immutable, so no view
// is involved). A pair no chain of road segments connects fails with an
// error matching ErrNoPath, a done context with one matching ErrCanceled
// or ErrDeadlineExceeded, and a position on an edge outside the network
// with one matching ErrUnknownEdge. A position's offset must be finite.
func (db *DB) NetworkDistance(ctx context.Context, a, b Position) (float64, error) {
	if err := core.CtxErr(ctx); err != nil {
		return 0, err
	}
	if err := db.checkEnds(a, b, "network distance"); err != nil {
		return 0, err
	}
	d := db.eng.Graph.NetworkDist(a, b)
	if math.IsInf(d, 1) {
		return 0, fmt.Errorf("dsks: network distance between edges %d and %d: %w", a.Edge, b.Edge, ErrNoPath)
	}
	return d, nil
}

// Route is a least-cost path between two network positions.
type Route = graph.Route

// ShortestRoute returns the least-cost path between two positions — the
// traversed edges in order plus the total cost — for presenting results
// ("how do I get there") rather than just ranking them. A position's
// offset must be finite, and a position on an edge outside the network
// fails with an error matching ErrUnknownEdge.
func (db *DB) ShortestRoute(a, b Position) (Route, error) {
	if err := db.checkEnds(a, b, "route"); err != nil {
		return Route{}, err
	}
	return db.eng.Graph.ShortestRoute(a, b)
}

// checkEnds validates both ends of a distance or a route.
func (db *DB) checkEnds(a, b Position, op string) error {
	for _, p := range [2]Position{a, b} {
		if err := engine.CheckPosTerms(db.eng.Graph, db.eng.VocabSize, op, p, nil); err != nil {
			return err
		}
	}
	return nil
}

// Options returns the options the database runs with: the caller's,
// with a snapshot's saved configuration merged in (OpenPath) and the
// defaults applied.
func (db *DB) Options() Options { return db.eng.Opts }

// IndexSizeBytes returns the on-disk footprint of the object index.
func (db *DB) IndexSizeBytes() int64 { return db.eng.SizeBytes }

// BuildTime returns how long the object index construction took.
func (db *DB) BuildTime() time.Duration { return db.eng.BuildTime }

// SetupTimes says where the time of opening a database went: what a
// restart costs, by structure. Index and Signatures add up to BuildTime.
type SetupTimes struct {
	Network    time.Duration // the road network laid out in CCAM pages
	Index      time.Duration // the inverted file
	Signatures time.Duration // the signatures over it and their size accounting
	Oracle     time.Duration // the landmark oracle; zero when off or loaded from a snapshot
}

// SetupTimes returns the set-up times of this database.
func (db *DB) SetupTimes() SetupTimes {
	e := db.eng
	return SetupTimes{
		Network:    e.NetworkBuildTime,
		Index:      e.BuildTime - e.SignatureTime,
		Signatures: e.SignatureTime,
		Oracle:     e.OracleBuildTime,
	}
}

// Add returns the sum of two set-up times (the shards of a set).
func (s SetupTimes) Add(o SetupTimes) SetupTimes {
	return SetupTimes{s.Network + o.Network, s.Index + o.Index, s.Signatures + o.Signatures, s.Oracle + o.Oracle}
}

func (s SetupTimes) String() string {
	ms := func(d time.Duration) time.Duration { return d.Round(time.Millisecond) }
	return fmt.Sprintf("network %v, index %v, signatures %v, oracle %v", ms(s.Network), ms(s.Index), ms(s.Signatures), ms(s.Oracle))
}

// ResetIO cools the buffer pools and zeroes the disk-access counters.
// It is latch-free: counters are zeroed with atomic swaps and the pools
// drop frames under their own short internal latches, so a reset never
// stalls queries or mutations (concurrent queries may observe partially
// reset counters, which is inherent to any reset during traffic).
func (db *DB) ResetIO() error {
	return db.eng.ResetIO()
}

// SetInjector installs a fault injector on every page store and the
// write-ahead log of the database, replacing any previous one; nil
// clears it. Tests build one with fault.New (internal/fault). Pages
// already corrupted stay corrupt until rewritten (and are detected when
// read if Options.Checksums is enabled).
func (db *DB) SetInjector(in storage.Injector) {
	db.eng.SetInjector(in)
	if db.wal != nil {
		db.wal.SetInjector(in)
	}
}
