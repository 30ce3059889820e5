// Package engine is what a one-index database owns: the disk-resident
// road network (CCAM) with its optional landmark oracle, exactly one
// object index over it, each structure on its own page file and buffer
// pool, the metrics registry, and the one run path every query family is
// accounted through (run.go). The public dsks.DB stands on an Engine and
// adds versions, views and durability; the experiments harness composes
// the same parts — one Network, several indexes — for the paper's
// multi-kind figures.
package engine

import (
	"errors"
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"dsks/internal/alt"
	"dsks/internal/ccam"
	"dsks/internal/core"
	"dsks/internal/graph"
	"dsks/internal/index"
	"dsks/internal/invindex"
	"dsks/internal/metrics"
	"dsks/internal/obj"
	"dsks/internal/sig"
	"dsks/internal/storage"
)

// IndexKind names an object index structure.
type IndexKind string

// The three versioned structures of Section 5; the experiments attach
// their baselines themselves (Network.Attach).
const (
	KindIF   IndexKind = "IF"
	KindSIF  IndexKind = "SIF"
	KindSIFP IndexKind = "SIF-P"
)

// Names of the distance-oracle counters on /varz and /metricsz
// (docs/DISTANCE.md). dist_settled_total counts with or without an
// oracle, so the oracle's settled-work reduction reads directly off the
// same counter across two runs.
const (
	CounterOracleLBPrunes  = "oracle_lb_prunes_total"
	CounterOracleUBHits    = "oracle_ub_hits_total"
	CounterOraclePopsSaved = "oracle_astar_pops_saved_total"
	CounterDistSettled     = "dist_settled_total"
)

// Names of the page-memo figures on /varz and /metricsz: the pages the
// finished queries held in their storage.PageMemo (summed, and the most
// one query held) and the number of queries that had one. Held pages are
// memory outside the buffer budget, at most the pool's frame count per
// in-flight query; the mean is total over queries.
const (
	CounterPagesHeld    = "index_pages_held_total"
	CounterPagesQueries = "index_pages_held_queries_total"
	GaugePagesHeldMax   = "index_pages_held_max"
)

// CounterOverflowReads names, on /varz and /metricsz, the index probes
// that followed a key out of its B+-tree leaf to the overflow heap: a list
// too long to share a leaf costs its probe one chain of page reads more
// than the tree's height. A share of the probes that is not small means
// the data has outgrown the inline bound.
const CounterOverflowReads = "index_overflow_list_reads_total"

// Options configures a build.
type Options struct {
	// BufferFraction sizes every LRU pool as this fraction of the network
	// dataset (the paper sets the buffer to 2% of the network dataset
	// size, independent of which object index is attached — a bigger
	// index must not buy itself a bigger cache). Zero defaults to 0.02,
	// with a floor of 16 frames so tiny test datasets stay functional.
	BufferFraction float64
	// IOLatency injects a synthetic per-miss delay (zero = none),
	// waited in the kernel on Linux (storage.BufferPool.SetIOLatency).
	IOLatency time.Duration
	// SIFPCuts is the cut budget of SIF-P (paper default 3).
	SIFPCuts int
	// BufferFrames, when positive, fixes every pool's frame count
	// directly, overriding BufferFraction (used by the buffer-sweep
	// experiment).
	BufferFrames int
	// Checksums enables per-page CRC32C verification in every buffer
	// pool: stamped on write-back, checked on miss, a mismatch failing
	// the read with storage.ErrCorruptPage. Off by default so the
	// paper's byte-exact I/O accounting is unchanged.
	Checksums bool
	// Oracle builds (or loads) the landmark distance oracle and routes
	// diversified queries through the landmark-assisted distance engine
	// (docs/DISTANCE.md). Off by default: results are bit-identical
	// either way, but the paper's baseline cost accounting assumes the
	// unassisted engine.
	Oracle bool
	// OracleLandmarks is the landmark count (default alt.DefaultLandmarks,
	// max alt.MaxLandmarks).
	OracleLandmarks int
	// OracleSeed seeds the deterministic landmark selection (0 = seed 1).
	OracleSeed uint64
	// OracleFile, when set with Oracle, is a persisted oracle to load
	// instead of rebuilding. A file that is missing, truncated, corrupt
	// or built with a different landmark count/seed is discarded and the
	// oracle is rebuilt from the graph — a bad oracle file never fails the
	// build.
	OracleFile string
}

// ErrBadOptions reports an option value that cannot configure a build or
// a query; the public package re-exports it.
var ErrBadOptions = errors.New("dsks: bad options")

// ErrTermOutOfRange reports a TermID at or beyond the vocabulary size; the
// public package re-exports it.
var ErrTermOutOfRange = errors.New("dsks: term outside vocabulary")

// CheckPosTerms validates what the index structures index into without
// bounds checks of their own, for a query, an insert or a distance (op
// names which): the position's edge must exist in g, its offset must be
// finite (core.CheckOffset), and every term must fall inside a vocabulary
// of vocab terms. Violations of the first and the last fail with errors
// matching graph.ErrUnknownEdge and ErrTermOutOfRange.
func CheckPosTerms(g *graph.Graph, vocab int, op string, pos graph.Position, terms []obj.TermID) error {
	if pos.Edge < 0 || int(pos.Edge) >= g.NumEdges() {
		return fmt.Errorf("dsks: %s on edge %d: %w", op, pos.Edge, graph.ErrUnknownEdge)
	}
	if err := core.CheckOffset(pos); err != nil {
		return fmt.Errorf("dsks: %s on edge %d: %w", op, pos.Edge, err)
	}
	for _, t := range terms {
		if t < 0 || int(t) >= vocab {
			return fmt.Errorf("dsks: term %d with vocabulary of %d: %w", t, vocab, ErrTermOutOfRange)
		}
	}
	return nil
}

func (o Options) withDefaults() Options {
	if o.BufferFraction <= 0 {
		o.BufferFraction = 0.02
	}
	if o.SIFPCuts == 0 {
		o.SIFPCuts = 3
	}
	return o
}

// TraceHook observes per-query stage timings; install one with
// SetTraceHook. Hooks run synchronously on the query goroutine, so they
// must be fast and are expected to be safe for concurrent calls.
type TraceHook func(kind metrics.QueryKind, trace core.Trace)

// Network is the part of an engine that does not depend on the object
// index: the CCAM file, the optional landmark oracle, the oracle-attached
// search network, the metrics registry and the trace hook. Several
// engines may share one Network (the experiments do); a database has one
// of each.
type Network struct {
	// Opts are the build options with defaults applied.
	Opts  Options
	Graph *graph.Graph
	// File is the disk-resident road network.
	File *ccam.File
	// SearchNet is File plus the oracle attachment (core.WithOracle);
	// diversified searches run over it so their distance engines pick up
	// the landmark assists and the dist_settled counter. Without an
	// oracle it carries the counters alone — dist_settled_total then
	// counts the baseline's traversal work, the denominator of the
	// oracle's headline metric.
	SearchNet ccam.Network

	// NetworkBuildTime is what laying the road network out in CCAM pages
	// took.
	NetworkBuildTime time.Duration

	// Oracle is the landmark distance oracle, nil unless Options.Oracle
	// was set. OracleBuildTime is zero when it was loaded from
	// Options.OracleFile.
	Oracle          *alt.Oracle
	OracleBuildTime time.Duration

	// Metrics aggregates query samples, buffer-pool counters and the
	// oracle counters of everything running over this network.
	Metrics *metrics.Registry

	frames    int                   // the buffer budget of every pool
	pools     []*storage.BufferPool // network, then oracle if built
	traceHook atomic.Value          // of TraceHook
	pagesHeld heldPages
}

// heldPages are the page-memo figures in the registry.
type heldPages struct{ total, queries, max *atomic.Int64 }

func (h heldPages) observe(n int64) {
	h.total.Add(n)
	h.queries.Add(1)
	metrics.StoreMax(h.max, n)
}

// NewNetwork lays the road network out in CCAM pages and, with
// Options.Oracle, builds or loads the landmark oracle.
func NewNetwork(g *graph.Graph, opts Options) (*Network, error) {
	n := &Network{Opts: opts.withDefaults(), Graph: g, Metrics: metrics.NewRegistry()}
	n.pagesHeld = heldPages{
		total:   n.Metrics.Counter(CounterPagesHeld),
		queries: n.Metrics.Counter(CounterPagesQueries),
		max:     n.Metrics.Counter(GaugePagesHeldMax),
	}

	pool := n.newPool("network")
	start := time.Now()
	var err error
	if n.File, err = ccam.Build(g, pool); err != nil {
		return nil, fmt.Errorf("engine: building CCAM: %w", err)
	}
	n.NetworkBuildTime = time.Since(start)
	// The paper's buffer budget: a fraction of the network dataset size,
	// identical for every index structure (or an explicit frame count).
	n.frames = n.Opts.BufferFrames
	if n.frames <= 0 {
		n.frames = storage.FramesForBudget(int64(float64(pool.File().SizeBytes()) * n.Opts.BufferFraction))
		if n.frames < 16 {
			n.frames = 16
		}
	}
	if err := n.settle(pool); err != nil {
		return nil, err
	}
	n.pools = append(n.pools, pool)

	var lo core.LandmarkOracle
	if n.Opts.Oracle {
		if err := n.attachOracle(); err != nil {
			return nil, err
		}
		lo = n.Oracle
	}
	n.SearchNet = core.WithOracle(n.File, lo, core.OracleCounters{
		LBPrunes:  n.Metrics.Counter(CounterOracleLBPrunes),
		UBHits:    n.Metrics.Counter(CounterOracleUBHits),
		PopsSaved: n.Metrics.Counter(CounterOraclePopsSaved),
		Settled:   n.Metrics.Counter(CounterDistSettled),
	})
	return n, nil
}

// attachOracle gives the landmark oracle its own page file and pool, so
// oracle reads show up in IOStats and the buffer accounting like any
// other structure. A persisted file that fails validation
// (alt.ErrBadOracle covers truncation, corruption and config mismatches)
// is discarded and the oracle rebuilt from the graph — degrade, never
// fail.
func (n *Network) attachOracle() error {
	pool := n.newPool("oracle")
	cfg := alt.Config{Landmarks: n.Opts.OracleLandmarks, Seed: n.Opts.OracleSeed}
	if n.Opts.OracleFile != "" {
		if f, ferr := os.Open(n.Opts.OracleFile); ferr == nil {
			if o, lerr := alt.Load(f, n.Graph.NumNodes(), pool, cfg); lerr == nil {
				n.Oracle = o
			}
			f.Close()
		}
	}
	if n.Oracle == nil {
		start := time.Now()
		var err error
		if n.Oracle, err = alt.Build(n.Graph, pool, cfg); err != nil {
			return fmt.Errorf("engine: building landmark oracle: %w", err)
		}
		n.OracleBuildTime = time.Since(start)
	}
	n.pools = append(n.pools, pool)
	return n.settle(pool)
}

// newPool creates one structure's page file behind a pool roomy enough to
// build in, and registers its counters under name.
func (n *Network) newPool(name string) *storage.BufferPool {
	stats := &storage.IOStats{}
	n.Metrics.RegisterPool(name, func() metrics.PoolCounters {
		snap := stats.Snapshot()
		return metrics.PoolCounters{
			LogicalReads: snap.LogicalRead,
			DiskReads:    snap.DiskRead,
			DiskWrites:   snap.DiskWrite,
			ReadRetries:  snap.ReadRetries,
			CorruptPages: snap.CorruptPage,
		}
	})
	return storage.NewBufferPool(storage.NewPageFile(), 1<<20, stats)
}

// settle ends a structure's build: the pool shrinks to the buffer budget
// and starts cold, and only then picks up the serving-time I/O latency
// and checksum settings, so neither taxes the build.
func (n *Network) settle(pool *storage.BufferPool) error {
	if err := pool.SetCapacity(n.frames); err != nil {
		return err
	}
	if err := pool.DropAll(); err != nil {
		return err
	}
	if n.Opts.IOLatency > 0 {
		pool.SetIOLatency(n.Opts.IOLatency)
	}
	if n.Opts.Checksums {
		pool.SetChecksums(true)
	}
	return nil
}

// Pools returns the network's buffer pools: the CCAM file's first, then
// the oracle's if one is built. The slice is capacity-clipped, so
// appending to it never writes into the network's own.
func (n *Network) Pools() []*storage.BufferPool { return n.pools[:len(n.pools):len(n.pools)] }

// SetTraceHook installs (or, with nil, removes) the per-query trace hook.
func (n *Network) SetTraceHook(h TraceHook) { n.traceHook.Store(h) }

// Engine is one object index over a Network: everything a query needs.
type Engine struct {
	*Network
	Kind IndexKind
	// Loader answers queries against the index as built. The run path
	// uses it only for an index without versions; for the others it binds
	// a reader per query (begin).
	Loader index.Loader
	// Versions is the index's copy-on-write seam, nil for a structure
	// that is immutable after build (the experiments' baselines).
	Versions Versioned
	// Pool backs the object index's page file.
	Pool *storage.BufferPool

	// Objects and VocabSize are the collection the index was built over.
	Objects   *obj.Collection
	VocabSize int

	// BuildTime and SizeBytes of the object index (Figure 6b/6c).
	// SignatureTime is the part of BuildTime spent after the inverted file
	// was written: the signatures and their size accounting (zero for IF
	// and the baselines).
	BuildTime     time.Duration
	SignatureTime time.Duration
	SizeBytes     int64

	built *Roots                // the root set as built: what the zero Snapshot reads
	pools []*storage.BufferPool // the network's pools, then Pool: what a query can read
}

// Open builds the network and one object index of the given kind over it.
func Open(g *graph.Graph, objects *obj.Collection, vocabSize int, kind IndexKind, opts Options) (*Engine, error) {
	n, err := NewNetwork(g, opts)
	if err != nil {
		return nil, err
	}
	return n.BuildIndex(kind, objects, vocabSize, n.SigOptions(kind))
}

// Attach builds one object index on its own page file and pool: build
// runs timed against a roomy pool and returns the query loader and the
// index's on-disk size; the pool then shrinks to the buffer budget.
func (n *Network) Attach(kind IndexKind, build func(pool *storage.BufferPool) (index.Loader, int64, error)) (*Engine, error) {
	pool := n.newPool(string(kind))
	e := &Engine{Network: n, Kind: kind, Pool: pool}
	start := time.Now()
	var err error
	if e.Loader, e.SizeBytes, err = build(pool); err != nil {
		return nil, fmt.Errorf("engine: building %s: %w", kind, err)
	}
	e.BuildTime = time.Since(start)
	e.pools = append(n.Pools(), pool)
	return e, n.settle(pool)
}

// SigOptions returns the signature options the served build of kind uses.
// All three probe the inverted file rarest term first, each by the
// posting counts of the snapshot it reads (a shard by its own). SIF-P
// partitions sig's default top fraction of edges with the greedy,
// Options.SIFPCuts cuts each, against the frequency-based query log (the
// paper's defaults); IF and SIF partition nothing.
func (n *Network) SigOptions(kind IndexKind) sig.Options {
	so := sig.Options{SelectivityOrder: true}
	if kind == KindSIFP {
		so.MaxCuts, so.Log = n.Opts.SIFPCuts, &sig.FreqLog{L: 3, N: 16, Seed: 99}
	}
	return so
}

// BuildIndex attaches one of the three versioned object indexes of
// Section 5. The inverted file underlies IF, SIF and SIF-P; every engine
// gets its own copy on its own page file so buffer budgets and I/O counts
// stay comparable across kinds. so configures the signatures (SIF, SIF-P)
// and the probe order (all three): Open passes SigOptions(kind), the
// experiments vary the query log, the partitioner and the probe order.
func (n *Network) BuildIndex(kind IndexKind, objects *obj.Collection, vocabSize int, so sig.Options) (*Engine, error) {
	switch kind {
	case KindIF, KindSIF, KindSIFP:
	default:
		return nil, fmt.Errorf("engine: unknown index kind %q", kind)
	}
	g, coder := n.Graph, invindex.GraphZCoder{G: n.Graph}
	var signatureTime time.Duration
	e, err := n.Attach(kind, func(pool *storage.BufferPool) (index.Loader, int64, error) {
		inv, err := invindex.Build(g, objects, vocabSize, pool)
		if err != nil {
			return nil, 0, err
		}
		inv.CountOverflowReads(n.Metrics.Counter(CounterOverflowReads))
		if kind == KindIF {
			return &invindex.Loader{Idx: inv, Coder: coder, SelectivityOrder: so.SelectivityOrder}, inv.SizeBytes(), nil
		}
		start := time.Now()
		s, err := sig.BuildSIF(g, objects, vocabSize, inv, coder, so)
		if err != nil {
			return nil, 0, err
		}
		size := s.SizeBytes()
		signatureTime = time.Since(start)
		return s, size, nil
	})
	if err != nil {
		return nil, err
	}
	e.Objects, e.VocabSize, e.SignatureTime = objects, vocabSize, signatureTime
	if kind == KindIF {
		e.Versions = ifVersions{e.Loader.(*invindex.Loader)}
	} else {
		e.Versions = sifVersions{e.Loader.(*sig.SIF)}
	}
	e.built = e.Versions.Roots()
	return e, nil
}

// DiskReads returns the buffer misses of the engine's pools since the
// last reset.
func (e *Engine) DiskReads() int64 {
	var total int64
	for _, p := range e.pools {
		total += p.Stats().DiskRead.Load()
	}
	return total
}

// ResetIO zeroes the engine's I/O counters and cools its buffers.
func (e *Engine) ResetIO() error { return ResetIO(e.pools) }

// ResetIO zeroes the pools' I/O counters and cools their buffers.
func ResetIO(pools []*storage.BufferPool) error {
	for _, p := range pools {
		p.Stats().Reset()
		if err := p.DropAll(); err != nil {
			return err
		}
	}
	return nil
}

// SetInjector installs (or clears, with nil) a fault injector on every
// page store of the engine. One injector sees the interleaved operation
// stream of all stores, so a deterministic campaign spans the whole
// database.
func (e *Engine) SetInjector(in storage.Injector) {
	for _, p := range e.pools {
		p.File().SetInjector(in)
	}
}
