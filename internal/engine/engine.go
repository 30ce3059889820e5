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
	"math"
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

// Options configures a database: its object index, its buffer pools,
// its write-ahead log and its landmark oracle. The public dsks.Options is
// this type; the experiments harness builds with it too, choosing its own
// index kinds and logging nothing.
type Options struct {
	// Index picks the object index structure; empty defaults to SIF-P.
	Index IndexKind
	// BufferFraction sizes every LRU pool as this fraction of the network
	// dataset, whichever index is attached (default 0.02, the paper's
	// setting, with a floor of 16 frames for tiny datasets).
	BufferFraction float64
	// IOLatency injects a synthetic delay per buffer miss, waited in the
	// kernel on Linux as a real pread would (no 1ms timer floor), making
	// response times I/O-dominated like a spinning-disk testbed.
	IOLatency time.Duration
	// PartitionCuts is the SIF-P per-edge cut budget (default 3).
	PartitionCuts int
	// Checksums enables per-page CRC32C verification in the buffer
	// pools: stamped on write-back, verified on every miss, so silent
	// media corruption fails the read with storage.ErrCorruptPage instead
	// of returning wrong results. Off by default to keep the paper's
	// byte-exact I/O accounting unchanged.
	Checksums bool
	// WALDir, when set, makes mutations durable through a write-ahead
	// log in this directory: Insert and Remove are acknowledged only once
	// a group commit (2ms or 64 records, docs/DURABILITY.md) has fsynced
	// their record, Open and OpenPath replay the log over the opened
	// state, and SaveTo checkpoints it. Empty disables logging.
	WALDir string
	// Oracle builds the landmark (ALT) distance oracle at open time and
	// routes diversified queries through the landmark-assisted distance
	// engine, with results bit-identical to the unassisted one
	// (docs/DISTANCE.md). Off by default: the paper's cost accounting
	// assumes the unassisted engine. SaveTo persists the oracle, and
	// OpenPath re-enables it for snapshots that carry one.
	Oracle bool
	// Landmarks is the oracle's landmark count (0 = the default 16; at
	// most 512): more landmarks, tighter bounds and a bigger oracle.
	Landmarks int
	// OracleSeed seeds the deterministic landmark selection (0 = seed 1),
	// so rebuilt and loaded oracles agree.
	OracleSeed uint64
}

// Validate rejects option values that cannot configure a database, with
// an error matching ErrBadOptions.
func (o Options) Validate() error {
	switch o.Index {
	case "", KindIF, KindSIF, KindSIFP:
	default:
		return fmt.Errorf("%w: unknown index kind %q", ErrBadOptions, o.Index)
	}
	if o.BufferFraction < 0 || math.IsNaN(o.BufferFraction) || math.IsInf(o.BufferFraction, 0) {
		return fmt.Errorf("%w: BufferFraction must be finite and non-negative, got %v", ErrBadOptions, o.BufferFraction)
	}
	if o.IOLatency < 0 {
		return fmt.Errorf("%w: IOLatency must be non-negative, got %v", ErrBadOptions, o.IOLatency)
	}
	if o.PartitionCuts < 0 {
		return fmt.Errorf("%w: PartitionCuts must be non-negative, got %d", ErrBadOptions, o.PartitionCuts)
	}
	if o.Landmarks < 0 || o.Landmarks > alt.MaxLandmarks {
		return fmt.Errorf("%w: Landmarks must be in [0, %d], got %d", ErrBadOptions, alt.MaxLandmarks, o.Landmarks)
	}
	return nil
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
	if o.Index == "" {
		o.Index = KindSIFP
	}
	if o.BufferFraction <= 0 {
		o.BufferFraction = 0.02
	}
	if o.PartitionCuts == 0 {
		o.PartitionCuts = 3
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
	// was set. OracleBuildTime is zero when it was loaded from a file.
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
// Options.Oracle, builds the landmark oracle or loads it from oracleFile.
// A file that is missing, truncated, corrupt or built with another
// landmark count or seed is discarded and the oracle rebuilt from the
// graph: a bad oracle file never fails the build. frames, when positive,
// fixes every pool's frame count, overriding Options.BufferFraction (the
// buffer-sweep experiment's knob).
func NewNetwork(g *graph.Graph, opts Options, frames int, oracleFile string) (*Network, error) {
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
	n.frames = frames
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
		if err := n.attachOracle(oracleFile); err != nil {
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
// other structure. A persisted file (empty: none) that fails validation
// (alt.ErrBadOracle covers truncation, corruption and config mismatches)
// is discarded and the oracle rebuilt from the graph — degrade, never
// fail.
func (n *Network) attachOracle(file string) error {
	pool := n.newPool("oracle")
	cfg := alt.Config{Landmarks: n.Opts.Landmarks, Seed: n.Opts.OracleSeed}
	if file != "" {
		if f, ferr := os.Open(file); ferr == nil {
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

// Open validates opts and builds the network and one object index of
// kind Options.Index over it; oracleFile is a persisted oracle to load
// (NewNetwork).
func Open(g *graph.Graph, objects *obj.Collection, vocabSize int, opts Options, oracleFile string) (*Engine, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	n, err := NewNetwork(g, opts, 0, oracleFile)
	if err != nil {
		return nil, err
	}
	return n.BuildIndex(n.Opts.Index, objects, vocabSize, n.SigOptions(n.Opts.Index))
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
// Options.PartitionCuts cuts each, against the frequency-based query log
// (the paper's defaults); IF and SIF partition nothing.
func (n *Network) SigOptions(kind IndexKind) sig.Options {
	so := sig.Options{SelectivityOrder: true}
	if kind == KindSIFP {
		so.MaxCuts, so.Log = n.Opts.PartitionCuts, &sig.FreqLog{L: 3, N: 16, Seed: 99}
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
