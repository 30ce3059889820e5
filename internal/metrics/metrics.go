// Package metrics is the observability layer of the query engine: atomic
// counters and lock-free latency histograms, aggregated per query kind and
// per buffer pool. Recording is wait-free (a handful of atomic adds per
// query), so concurrent queries never serialize on the metrics; snapshots
// are consistent enough for monitoring without stopping the world.
package metrics

import (
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// QueryKind labels the query families the engine serves.
type QueryKind string

// The query kinds the registry tracks.
const (
	KindSearch      QueryKind = "search"
	KindDiversified QueryKind = "diversified"
	KindKNN         QueryKind = "knn"
	KindRanked      QueryKind = "ranked"
	KindCollective  QueryKind = "collective"
	KindStream      QueryKind = "stream"
	// KindMerge tracks the scatter-gather router's merge phase: the time
	// from the last fan-out leg returning to the merged result being
	// ready (internal/shard).
	KindMerge QueryKind = "merge"
)

// Kinds lists every tracked query kind in display order.
func Kinds() []QueryKind {
	return []QueryKind{KindSearch, KindDiversified, KindKNN, KindRanked, KindCollective, KindStream, KindMerge}
}

// numBuckets covers latencies from 1ns to ~9.2s-per-bucket-boundary with
// power-of-two buckets; anything beyond the last boundary lands in the
// final bucket.
const numBuckets = 34

// Histogram is a lock-free latency histogram with exponential
// (power-of-two nanosecond) buckets. The zero value is ready to use.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
	buckets [numBuckets]atomic.Int64
}

// bucketOf maps a duration to its bucket index: bucket i holds durations
// in [2^i, 2^(i+1)) nanoseconds (bucket 0 also takes <= 1ns).
func bucketOf(d time.Duration) int {
	ns := int64(d)
	if ns < 1 {
		ns = 1
	}
	b := bits.Len64(uint64(ns)) - 1
	if b >= numBuckets {
		b = numBuckets - 1
	}
	return b
}

// bucketUpper is the exclusive upper bound of bucket i in nanoseconds.
func bucketUpper(i int) int64 {
	if i >= 62 {
		return 1<<63 - 1
	}
	return 1 << (i + 1)
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.count.Add(1)
	h.sum.Add(int64(d))
	StoreMax(&h.max, int64(d))
	h.buckets[bucketOf(d)].Add(1)
}

// StoreMax raises a to v if v is larger: the lock-free running maximum
// behind Histogram.Max and the gauges kept as named counters.
func StoreMax(a *atomic.Int64, v int64) {
	for cur := a.Load(); v > cur && !a.CompareAndSwap(cur, v); cur = a.Load() {
	}
}

// Reset zeroes the histogram.
func (h *Histogram) Reset() {
	h.count.Store(0)
	h.sum.Store(0)
	h.max.Store(0)
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
}

// HistogramSnapshot is a point-in-time copy of a histogram.
type HistogramSnapshot struct {
	Count   int64
	Sum     time.Duration
	Max     time.Duration
	Buckets [numBuckets]int64
}

// Snapshot copies the histogram's counters.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	s.Count = h.count.Load()
	s.Sum = time.Duration(h.sum.Load())
	s.Max = time.Duration(h.max.Load())
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// Quantile estimates the q-quantile (q in [0,1]) from the bucket counts,
// interpolating linearly within the winning bucket. An empty histogram
// returns 0. The estimate is bounded by the true value's bucket, so it is
// never off by more than 2x.
func (s HistogramSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	var cum float64
	for i := range s.Buckets {
		n := float64(s.Buckets[i])
		if n == 0 {
			continue
		}
		if cum+n >= rank {
			lower := float64(int64(1) << i)
			upper := float64(bucketUpper(i))
			frac := (rank - cum) / n
			v := lower + frac*(upper-lower)
			if max := float64(s.Max); v > max && max > 0 {
				v = max
			}
			return time.Duration(v)
		}
		cum += n
	}
	return s.Max
}

// Mean returns the average observed duration.
func (s HistogramSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / time.Duration(s.Count)
}

// Sample is what one finished query contributes to the registry.
type Sample struct {
	Elapsed  time.Duration
	Err      bool // the query returned an error
	Canceled bool // the error was a cancellation or deadline

	// Work counters, typically copied from core.SearchStats.
	NodesPopped   int64
	EdgesVisited  int64
	Candidates    int64
	Pruned        int64
	PairDistCalcs int64
	// DiskReads is the buffer misses the query charged to its index.
	DiskReads int64
}

// queryMetrics aggregates one query kind.
type queryMetrics struct {
	count    atomic.Int64
	errors   atomic.Int64
	canceled atomic.Int64
	latency  Histogram

	nodesPopped   atomic.Int64
	edgesVisited  atomic.Int64
	candidates    atomic.Int64
	pruned        atomic.Int64
	pairDistCalcs atomic.Int64
	diskReads     atomic.Int64
}

// PoolCounters is what a registered buffer pool reports when the
// registry pulls it at snapshot time.
type PoolCounters struct {
	LogicalReads int64 // page requests
	DiskReads    int64 // buffer misses
	DiskWrites   int64 // page write-backs
	ReadRetries  int64 // transient read faults absorbed by the retry loop
	CorruptPages int64 // checksum failures detected on miss
}

// PoolFunc reports a buffer pool's cumulative counters; the registry
// pulls it at snapshot time.
type PoolFunc func() PoolCounters

// Registry aggregates query samples by kind and tracks registered buffer
// pools and named counters. Safe for concurrent use.
type Registry struct {
	queries map[QueryKind]*queryMetrics

	mu    sync.Mutex
	pools map[string]PoolFunc

	// counters holds the named counters; the sync.Map makes Counter
	// lock-free on the hot path after a name's first registration.
	counters sync.Map // string -> *atomic.Int64
}

// NewRegistry creates a registry with every query kind pre-registered.
func NewRegistry() *Registry {
	r := &Registry{
		queries: make(map[QueryKind]*queryMetrics, len(Kinds())),
		pools:   make(map[string]PoolFunc),
	}
	for _, k := range Kinds() {
		r.queries[k] = &queryMetrics{}
	}
	return r
}

// Counter returns the named cumulative counter, creating it on first use.
// Callers should cache the returned pointer for hot paths; Add/Load on it
// are plain atomics. Counter values appear in snapshots and in the
// Prometheus rendering (the name is used verbatim as the metric name, so
// use prometheus-style snake_case names such as "server_cache_hits_total";
// a name without the _total suffix is rendered as a gauge).
func (r *Registry) Counter(name string) *atomic.Int64 {
	if c, ok := r.counters.Load(name); ok {
		return c.(*atomic.Int64)
	}
	c, _ := r.counters.LoadOrStore(name, new(atomic.Int64))
	return c.(*atomic.Int64)
}

// RegisterPool attaches a named buffer pool; its hit rate appears in
// snapshots. Re-registering a name replaces the previous function.
func (r *Registry) RegisterPool(name string, fn PoolFunc) {
	r.mu.Lock()
	r.pools[name] = fn
	r.mu.Unlock()
}

// Record adds one query's sample to its kind's aggregates.
func (r *Registry) Record(kind QueryKind, s Sample) {
	qm := r.queries[kind]
	if qm == nil {
		// Unknown kind: fold into the generic search bucket rather than drop.
		qm = r.queries[KindSearch]
	}
	qm.count.Add(1)
	if s.Err {
		qm.errors.Add(1)
	}
	if s.Canceled {
		qm.canceled.Add(1)
	}
	qm.latency.Observe(s.Elapsed)
	qm.nodesPopped.Add(s.NodesPopped)
	qm.edgesVisited.Add(s.EdgesVisited)
	qm.candidates.Add(s.Candidates)
	qm.pruned.Add(s.Pruned)
	qm.pairDistCalcs.Add(s.PairDistCalcs)
	qm.diskReads.Add(s.DiskReads)
}

// Reset zeroes every query aggregate and named counter (pool counters are
// owned by the pools themselves and are not touched).
func (r *Registry) Reset() {
	r.counters.Range(func(_, c any) bool {
		c.(*atomic.Int64).Store(0)
		return true
	})
	for _, qm := range r.queries {
		qm.count.Store(0)
		qm.errors.Store(0)
		qm.canceled.Store(0)
		qm.latency.Reset()
		qm.nodesPopped.Store(0)
		qm.edgesVisited.Store(0)
		qm.candidates.Store(0)
		qm.pruned.Store(0)
		qm.pairDistCalcs.Store(0)
		qm.diskReads.Store(0)
	}
}

// QuerySnapshot is the aggregated view of one query kind.
type QuerySnapshot struct {
	Count    int64
	Errors   int64
	Canceled int64

	P50  time.Duration
	P95  time.Duration
	P99  time.Duration
	Mean time.Duration
	Max  time.Duration

	NodesPopped   int64
	EdgesVisited  int64
	Candidates    int64
	Pruned        int64
	PairDistCalcs int64
	DiskReads     int64

	Latency HistogramSnapshot
}

// PoolSnapshot is the counter view of one buffer pool.
type PoolSnapshot struct {
	LogicalReads int64
	DiskReads    int64
	DiskWrites   int64
	// ReadRetries counts transient read faults the pool retried away;
	// CorruptPages counts checksum failures it detected. Both stay zero
	// in a healthy run.
	ReadRetries  int64
	CorruptPages int64
	// HitRate is the fraction of page requests served from the buffer
	// (0 when the pool has seen no requests).
	HitRate float64
}

// Snapshot is a point-in-time view of the whole registry.
type Snapshot struct {
	Queries map[QueryKind]QuerySnapshot
	Pools   map[string]PoolSnapshot
	// Counters are the named counters registered with Registry.Counter.
	Counters map[string]int64 `json:",omitempty"`
}

// TotalQueries sums the per-kind query counts.
func (s Snapshot) TotalQueries() int64 {
	var n int64
	for _, q := range s.Queries {
		n += q.Count
	}
	return n
}

// PoolNames lists the registered pools in sorted order.
func (s Snapshot) PoolNames() []string {
	names := make([]string, 0, len(s.Pools))
	for n := range s.Pools {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// CounterNames lists the named counters in sorted order.
func (s Snapshot) CounterNames() []string {
	names := make([]string, 0, len(s.Counters))
	for n := range s.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Snapshot captures the registry.
func (r *Registry) Snapshot() Snapshot {
	out := Snapshot{
		Queries:  make(map[QueryKind]QuerySnapshot, len(r.queries)),
		Pools:    make(map[string]PoolSnapshot),
		Counters: make(map[string]int64),
	}
	r.counters.Range(func(name, c any) bool {
		out.Counters[name.(string)] = c.(*atomic.Int64).Load()
		return true
	})
	for kind, qm := range r.queries {
		lat := qm.latency.Snapshot()
		out.Queries[kind] = QuerySnapshot{
			Count:         qm.count.Load(),
			Errors:        qm.errors.Load(),
			Canceled:      qm.canceled.Load(),
			P50:           lat.Quantile(0.50),
			P95:           lat.Quantile(0.95),
			P99:           lat.Quantile(0.99),
			Mean:          lat.Mean(),
			Max:           lat.Max,
			NodesPopped:   qm.nodesPopped.Load(),
			EdgesVisited:  qm.edgesVisited.Load(),
			Candidates:    qm.candidates.Load(),
			Pruned:        qm.pruned.Load(),
			PairDistCalcs: qm.pairDistCalcs.Load(),
			DiskReads:     qm.diskReads.Load(),
			Latency:       lat,
		}
	}
	r.mu.Lock()
	pools := make(map[string]PoolFunc, len(r.pools))
	for name, fn := range r.pools {
		pools[name] = fn
	}
	r.mu.Unlock()
	for name, fn := range pools {
		c := fn()
		ps := PoolSnapshot{
			LogicalReads: c.LogicalReads,
			DiskReads:    c.DiskReads,
			DiskWrites:   c.DiskWrites,
			ReadRetries:  c.ReadRetries,
			CorruptPages: c.CorruptPages,
		}
		if c.LogicalReads > 0 {
			ps.HitRate = float64(c.LogicalReads-c.DiskReads) / float64(c.LogicalReads)
		}
		out.Pools[name] = ps
	}
	return out
}
