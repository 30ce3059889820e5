package shard

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"dsks"
	"dsks/internal/breaker"
	"dsks/internal/ccam"
	"dsks/internal/core"
	"dsks/internal/engine"
	"dsks/internal/metrics"
)

// Sentinel errors of the shard layer.
var (
	// ErrShardDown reports a fan-out leg that failed for a reason local
	// to one shard — a storage fault, a poisoned WAL, a panic. Errors
	// wrap both ErrShardDown and the underlying cause.
	ErrShardDown = errors.New("shard: shard unavailable")
	// ErrPartialResult reports a sharded answer assembled from a
	// strict subset of the routed shards (partial-result policy only).
	// The merged result accompanying it is coherent but may be missing
	// candidates owned by the failed shards.
	ErrPartialResult = errors.New("shard: partial result")
	// ErrBadShardCount reports an unusable shard count or graph.
	ErrBadShardCount = errors.New("shard: bad shard count")
	// ErrBadManifest reports a shard-set manifest that is malformed or
	// inconsistent with the shard databases next to it.
	ErrBadManifest = errors.New("shard: invalid shard-set manifest")
	// ErrClosed reports an operation on a closed shard set.
	ErrClosed = errors.New("shard: set closed")
)

// Router counter names in the set's metrics registry.
const (
	CounterFanoutLegs = "router_fanout_legs_total"
	CounterPrunedLegs = "router_pruned_legs_total"
	CounterPartial    = "router_partial_total"
)

// Options configures a shard set.
type Options struct {
	// DB is the template for every shard database. WALDir, when set, is
	// a parent directory: shard i logs to <WALDir>/shard-<i>.
	DB dsks.Options
	// Partial selects the partial-result fan-out policy: a query whose
	// legs partly fail returns the merged survivors together with an
	// error wrapping ErrPartialResult, instead of failing outright
	// (first-error-wins, the default).
	Partial bool
	// Replicas is the number of WAL-shipped read replicas per shard
	// (R). Replicas require DB.WALDir — the log is the shipping medium.
	Replicas int
	// MaxStaleness bounds how far (in log records) behind the pinned
	// primary LSN a failover replica may serve a read; 0 means
	// unbounded.
	MaxStaleness uint64
	// HedgeAfter races a replica against a primary leg that has not
	// answered within this delay, taking whichever finishes first; 0
	// disables hedging.
	HedgeAfter time.Duration
	// LegRetries is how many times a fan-out leg retries a transient
	// shard error on the primary (capped exponential backoff with
	// deterministic jitter) before failing over; negative disables
	// retries.
	LegRetries int
	// DownAfter is how many consecutive shard-class failures mark a
	// primary down (default 3); DownCooldown gates recovery probes
	// (default 1s).
	DownAfter    int
	DownCooldown time.Duration
	// Seed keys every deterministic jitter schedule in the set.
	Seed uint64
}

// shardState is one shard's database and its routing counters.
type shardState struct {
	db *dsks.DB
	// insMu serializes inserts into this shard, so the set-wide IDs it
	// takes rise in commit order; the durability wait happens after it
	// is released (the same append-under-latch, fsync-outside protocol
	// the WAL itself uses).
	insMu sync.Mutex
	// reqs / errs count fan-out legs sent to / failed on this shard.
	reqs *atomic.Int64
	errs *atomic.Int64
	// replicas are the shard's WAL-shipped read replicas (possibly
	// empty); health is the primary's circuit breaker. Both are fixed
	// at open time.
	replicas []*Replica
	health   *breaker.Breaker
}

// Set is an N-way sharded database: one dsks.DB per partition group, all
// sharing the (replicated, immutable) road network, plus the routing
// state — the partition summary and the next object ID. Each shard stores
// the objects it owns under their set-wide IDs; every other ID below its
// collection's length is a tombstone that never held an object.
type Set struct {
	g     *dsks.Graph
	vocab int
	part  *Partition
	// net serves the cross-shard pair distances of the router's
	// diversified merge; it reads the in-memory graph directly, so it
	// costs no page I/O.
	net ccam.Network
	// searchNet is net plus the landmark-oracle attachment for the
	// router-side merge engine (set by initSearchNet once the shards are
	// open): every shard shares the full network and the same oracle
	// configuration, so shard 0's oracle serves the router too.
	searchNet ccam.Network
	shards    []shardState
	// opts is the set's configuration, Replicas clamped at zero; opts.DB
	// is the template of every shard database.
	opts Options

	reg        *metrics.Registry
	legsTotal  *atomic.Int64
	pruneTotal *atomic.Int64
	partTotal  *atomic.Int64
	retryTotal *atomic.Int64
	hedgeTotal *atomic.Int64
	failTotal  *atomic.Int64
	repApplied *atomic.Int64
	repLag     *atomic.Int64

	// seq is the router's mutation clock: every acknowledged mutation
	// gets the next value, giving clients one monotone LSN-like token
	// over the whole set even though the per-shard LSNs advance
	// independently.
	seq atomic.Uint64

	// nextID is the object ID the next insert takes. It is taken under
	// the owner shard's insert latch; an insert that fails leaves its ID
	// unused.
	nextID atomic.Int64

	closed atomic.Bool
}

// Open partitions the road network n ways and opens one database per
// shard over the objects it owns, each under its ID in objects — the ID
// an unsharded dsks.Open gives it. Tombstoned objects of the input
// collection stay tombstones.
func Open(g *dsks.Graph, objects *dsks.Collection, vocabSize, n int, opts Options) (*Set, error) {
	part, err := Split(g, n)
	if err != nil {
		return nil, err
	}
	s := newSet(g, vocabSize, part, opts)
	if err := s.checkReplication(); err != nil {
		return nil, err
	}

	for i := range s.shards {
		// Each replica gets a base of its own: the primary replays its
		// WAL tail into the collection it opens over, and the replicas
		// re-apply exactly those records through the tailer instead.
		var seeds []*dsks.Collection
		for j := 0; j < s.opts.Replicas; j++ {
			seeds = append(seeds, shardObjects(objects, part, i))
		}
		db, err := dsks.Open(g, shardObjects(objects, part, i), vocabSize, shardOptions(s.opts.DB, i))
		if err != nil {
			s.closeOpened(i)
			return nil, fmt.Errorf("shard: opening shard %d: %w", i, err)
		}
		s.shards[i].db = db
		if err := s.startReplicas(i, seeds, ""); err != nil {
			s.closeOpened(i + 1)
			return nil, err
		}
	}
	s.startIDs(objects.Len())
	s.initSearchNet()
	s.launchReplicas()
	return s, nil
}

// shardObjects is shard i's collection: every live object of objects on
// an edge the shard owns, under its ID there. Every other ID below the
// last it owns is a tombstone that never held an object.
func shardObjects(objects *dsks.Collection, part *Partition, i int) *dsks.Collection {
	col := dsks.NewCollection()
	col.Grow(objects.Len())
	for id := 0; id < objects.Len(); id++ {
		o := objects.Get(dsks.ObjectID(id))
		if !objects.Removed(o.ID) && int(part.Owner[o.Pos.Edge]) == i {
			col.Pad(id)
			col.Add(o.Pos, append([]dsks.TermID(nil), o.Terms...))
		}
	}
	return col
}

// initSearchNet builds the network the router-side merge engine runs
// over: the in-memory graph plus shard 0's landmark oracle (the shards
// all open the full network with the same oracle configuration, so their
// oracles are identical) and the router registry's oracle counters. With
// oracles disabled this still attaches the counters, so a sharded /varz
// reports the router's dist_settled_total either way.
func (s *Set) initSearchNet() {
	var o core.LandmarkOracle
	if len(s.shards) > 0 && s.shards[0].db != nil {
		if do := s.shards[0].db.DistanceOracle(); do != nil {
			o = do
		}
	}
	s.searchNet = core.WithOracle(s.net, o, core.OracleCounters{
		LBPrunes:  s.reg.Counter(engine.CounterOracleLBPrunes),
		UBHits:    s.reg.Counter(engine.CounterOracleUBHits),
		PopsSaved: s.reg.Counter(engine.CounterOraclePopsSaved),
		Settled:   s.reg.Counter(engine.CounterDistSettled),
	})
}

// checkReplication validates the replication options: the WAL is the
// shipping medium, so replicas without a log directory cannot exist.
func (s *Set) checkReplication() error {
	if s.opts.Replicas > 0 && s.opts.DB.WALDir == "" {
		return fmt.Errorf("shard: %d replicas per shard need DB.WALDir (the WAL is the shipping medium): %w",
			s.opts.Replicas, dsks.ErrBadOptions)
	}
	return nil
}

// startIDs sets the next object ID past n and past every ID a shard
// holds, its WAL's replayed tail included, so no acknowledged ID is ever
// taken again. Open-time only.
func (s *Set) startIDs(n int) {
	for i := range s.shards {
		n = max(n, s.shards[i].db.ObjectCount())
	}
	s.nextID.Store(int64(n))
}

// newSet builds the routing state common to Open and OpenSetPath.
func newSet(g *dsks.Graph, vocabSize int, part *Partition, opts Options) *Set {
	opts.Replicas = max(opts.Replicas, 0)
	reg := metrics.NewRegistry()
	s := &Set{
		g:          g,
		vocab:      vocabSize,
		part:       part,
		net:        &ccam.InMemory{G: g},
		shards:     make([]shardState, part.Shards),
		opts:       opts,
		reg:        reg,
		legsTotal:  reg.Counter(CounterFanoutLegs),
		pruneTotal: reg.Counter(CounterPrunedLegs),
		partTotal:  reg.Counter(CounterPartial),
		retryTotal: reg.Counter(CounterLegRetries),
		hedgeTotal: reg.Counter(CounterHedgedReads),
		failTotal:  reg.Counter(CounterFailovers),
		repApplied: reg.Counter(GaugeReplicaApplied),
		repLag:     reg.Counter(GaugeReplicaLag),
	}
	for i := range s.shards {
		s.shards[i].reqs = reg.Counter(fmt.Sprintf("shard%d_requests_total", i))
		s.shards[i].errs = reg.Counter(fmt.Sprintf("shard%d_errors_total", i))
		if opts.Replicas > 0 {
			s.shards[i].health = newShardHealth(opts.DownAfter, opts.DownCooldown)
		}
	}
	return s
}

// newShardHealth is a replicated primary's breaker: downAfter consecutive
// shard-class failures take it straight from healthy to open (down), with
// no degraded stage, and the cooldown gates the recovery probes.
func newShardHealth(downAfter int, cooldown time.Duration) *breaker.Breaker {
	return breaker.New(downAfter, downAfter, cooldown, breaker.Counters{})
}

// shardOptions derives shard i's database options from the template: a
// WALDir is a parent directory, and shard i logs to <WALDir>/shard-<i>
// (wal.Open creates it).
func shardOptions(o dsks.Options, i int) dsks.Options {
	if o.WALDir != "" {
		o.WALDir = filepath.Join(o.WALDir, fmt.Sprintf("shard-%d", i))
	}
	return o
}

// closeOpened closes the first n shards' databases and replicas (error
// cleanup).
func (s *Set) closeOpened(n int) {
	for i := 0; i < n; i++ {
		for _, r := range s.shards[i].replicas {
			_ = r.Close()
		}
		if s.shards[i].db != nil {
			_ = s.shards[i].db.Close()
		}
	}
}

// Shards is the shard count N.
func (s *Set) Shards() int { return len(s.shards) }

// Partition exposes the split and its boundary summary.
func (s *Set) Partition() *Partition { return s.part }

// Graph is the replicated road network.
func (s *Set) Graph() *dsks.Graph { return s.g }

// VocabSize is the shared vocabulary size.
func (s *Set) VocabSize() int { return s.vocab }

// DB exposes shard i's database (tests and tooling).
func (s *Set) DB(i int) *dsks.DB { return s.shards[i].db }

// Metrics is the router's own registry: fan-out/prune/partial counters,
// per-shard request and error counters, and merge-phase latency under
// kind "merge". Per-shard engine metrics live on each shard's DB.
func (s *Set) Metrics() *metrics.Registry { return s.reg }

// Snapshot captures the router registry.
func (s *Set) Snapshot() metrics.Snapshot {
	snap := s.reg.Snapshot()
	// The distance-oracle counter family lives in each shard's own
	// registry (and, for the router's merge engine, in s.reg), and the
	// page-memo and overflow-read figures in the shards' alone; fold the
	// shard contributions in so a sharded /varz reports them for the
	// whole set, like a single node does.
	for i := range s.shards {
		db := s.shards[i].db
		if db == nil {
			continue
		}
		sub := db.Snapshot()
		for _, name := range []string{
			engine.CounterOracleLBPrunes,
			engine.CounterOracleUBHits,
			engine.CounterOraclePopsSaved,
			engine.CounterDistSettled,
			engine.CounterPagesHeld,
			engine.CounterPagesQueries,
			engine.CounterOverflowReads,
		} {
			if v := sub.Counters[name]; v != 0 {
				snap.Counters[name] += v
			}
		}
		if v := sub.Counters[engine.GaugePagesHeldMax]; v > snap.Counters[engine.GaugePagesHeldMax] {
			snap.Counters[engine.GaugePagesHeldMax] = v
		}
	}
	return snap
}

// Seq is the router's mutation clock (see Insert).
func (s *Set) Seq() uint64 { return s.seq.Load() }

// DurableLSNs is the per-shard durable LSN vector.
func (s *Set) DurableLSNs() []uint64 {
	out := make([]uint64, len(s.shards))
	for i := range s.shards {
		out[i] = s.shards[i].db.DurableLSN()
	}
	return out
}

// LiveObjects sums the live object counts over the shards.
func (s *Set) LiveObjects() int {
	total := 0
	for i := range s.shards {
		total += s.shards[i].db.LiveObjects()
	}
	return total
}

// PinnedViews sums the read views open on every shard database, primaries
// and replicas alike (see dsks.DB.PinnedViews). Once every MultiView is
// closed it is zero.
func (s *Set) PinnedViews() int {
	total := 0
	for i := range s.shards {
		total += s.shards[i].db.PinnedViews()
		for _, r := range s.shards[i].replicas {
			total += r.db.PinnedViews()
		}
	}
	return total
}

// Close closes every shard database. The first error wins but every
// shard is attempted.
func (s *Set) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	var first error
	for i := range s.shards {
		// Replicas first: their tail loops read the primary's log files,
		// and stopping them before the log closes keeps the shutdown
		// order deterministic.
		for j, r := range s.shards[i].replicas {
			if err := r.Close(); err != nil && first == nil {
				first = fmt.Errorf("shard: closing replica %d of shard %d: %w", j, i, err)
			}
		}
		if s.shards[i].db == nil {
			continue
		}
		if err := s.shards[i].db.Close(); err != nil && first == nil {
			first = fmt.Errorf("shard: closing shard %d: %w", i, err)
		}
	}
	return first
}

// ResetIO cools every shard's buffer pools and I/O counters.
func (s *Set) ResetIO() error {
	var first error
	for i := range s.shards {
		if err := s.shards[i].db.ResetIO(); err != nil && first == nil {
			first = fmt.Errorf("shard: resetting shard %d: %w", i, err)
		}
	}
	return first
}

// Insert routes the object to the shard owning its edge and returns its
// object ID plus the router's mutation sequence number (monotone over the
// whole set; per-shard LSNs advance independently and are reported per
// query in the result envelope).
//
// Protocol: the shard's insert latch serializes inserts into that shard;
// the ID is taken and the insert applied and published while the latch is
// held (pure memory plus a buffered WAL append — no fsync), then the latch
// is released and the durability wait runs outside it. An insert that
// fails leaves its ID unused: no shard holds it.
func (s *Set) Insert(pos dsks.Position, terms []dsks.TermID) (dsks.ObjectID, uint64, error) {
	if s.closed.Load() {
		return 0, 0, ErrClosed
	}
	// Checked here as the shard will check it, so a bad insert is the
	// client's error, not a failure of the shard it would be routed to.
	if err := engine.CheckPosTerms(s.g, s.vocab, "insert", pos, terms); err != nil {
		return 0, 0, err
	}
	owner := int(s.part.Owner[pos.Edge])
	sh := &s.shards[owner]

	sh.insMu.Lock()
	id, lsn, err := sh.db.InsertAsync(dsks.ObjectID(s.nextID.Add(1)-1), pos, terms)
	sh.insMu.Unlock()
	if err != nil {
		return 0, 0, fmt.Errorf("shard: insert into shard %d: %w: %w", owner, ErrShardDown, err)
	}

	seq := s.seq.Add(1)
	if werr := sh.db.WaitDurable(lsn); werr != nil {
		return id, seq, fmt.Errorf("shard: insert of object %d applied on shard %d but not durable: %w: %w",
			id, owner, ErrShardDown, werr)
	}
	return id, seq, nil
}

// Remove tombstones the object in the shard that holds it. Each shard is
// asked in turn; one that does not hold id live refuses it before
// anything is logged.
func (s *Set) Remove(id dsks.ObjectID) (uint64, error) {
	if s.closed.Load() {
		return 0, ErrClosed
	}
	for i := range s.shards {
		err := s.shards[i].db.Remove(id)
		if err == nil {
			return s.seq.Add(1), nil
		}
		if !errors.Is(err, dsks.ErrUnknownObject) {
			return 0, fmt.Errorf("shard: remove on shard %d: %w: %w", i, ErrShardDown, err)
		}
	}
	return 0, fmt.Errorf("shard: remove object %d: %w", id, dsks.ErrUnknownObject)
}

// View pins one read view per shard — all pinned before any result is
// read, so a request sees one consistent per-shard LSN vector (reported
// in the result envelope). A pin is an atomic load on the shard's
// primary; replicas take over per leg, when a primary's leg fails (see
// legCursor). Close closes every per-shard view.
func (s *Set) View(ctx context.Context) (*MultiView, error) {
	if s.closed.Load() {
		return nil, ErrClosed
	}
	mv := &MultiView{
		set:   s,
		views: make([]*dsks.View, len(s.shards)),
		lsns:  make([]uint64, len(s.shards)),
	}
	for i := range s.shards {
		v, err := s.shards[i].db.View(ctx)
		if err != nil {
			mv.Close()
			return nil, fmt.Errorf("shard: pinning view on shard %d: %w", i, err)
		}
		mv.views[i] = v
		mv.lsns[i] = v.LSN()
	}
	return mv, nil
}
