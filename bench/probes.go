package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"dsks"
	"dsks/internal/ccam"
	"dsks/internal/core"
	"dsks/internal/graph"
	"dsks/internal/harness"
	"dsks/internal/invindex"
	"dsks/internal/obj"
	"dsks/internal/server"
	"dsks/internal/storage"
	"dsks/internal/wal"
)

// probeTime is how long testing.Benchmark times each probe.
const probeTime = 150 * time.Millisecond

// sink keeps the compiler from dropping a probe's measured call.
var sink any

// probe times fn with testing.Benchmark and returns ns and allocations
// per iteration. fn reports a failure by returning an error.
func probe(fn func(i int) error) (ns, allocs float64, err error) {
	r := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err = fn(i); err != nil {
				b.Fatal(err)
			}
		}
	})
	if err != nil {
		return 0, 0, err
	}
	if r.N == 0 {
		return 0, 0, errors.New("probe did not run")
	}
	return float64(r.T.Nanoseconds()) / float64(r.N), float64(r.MemAllocs) / float64(r.N), nil
}

// runProbes calls layer functions directly, on a single-node system
// built over the workload's dataset (with the oracle attached, whatever
// the workload serves) and with the workload's own queries. b is the
// traced run's engine, for the two probes that belong to it.
func runProbes(ds *dsks.Dataset, p *plan, b *backend) ([]metric, error) {
	ctx := context.Background()
	sys, err := harness.Build(ds, []harness.IndexKind{harness.KindSIF}, harness.Options{
		Oracle: true, OracleSeed: datasetSeed,
	})
	if err != nil {
		return nil, err
	}
	loader, err := sys.Loader(harness.KindSIF)
	if err != nil {
		return nil, err
	}
	w, qs := p.w, p.queries
	out := &outcome{}
	// run adds one probe's time (divided into unit) and, with allocName
	// set, its allocations.
	run := func(name, unit string, per float64, allocName string, fn func(i int) error) error {
		ns, allocs, err := probe(fn)
		if err != nil {
			return fmt.Errorf("probe %s: %w", name, err)
		}
		out.add(name, unit, ns/per)
		if allocName != "" {
			out.add(allocName, "count", allocs)
		}
		return nil
	}
	skq := func(i int) core.SKQuery {
		q := qs[i%len(qs)]
		return core.SKQuery{Pos: q.Pos, Terms: q.Terms, DeltaMax: q.DeltaMax}
	}

	// core: the expansion, COM, the distance engine, greedy, core pairs.
	if err := run("core.sksearch_us", "us", 1e3, "core.sksearch_allocs", func(i int) error {
		s, err := core.NewSKSearch(ctx, sys.Net, loader, skq(i))
		if err != nil {
			return err
		}
		sink, err = s.All()
		return err
	}); err != nil {
		return nil, err
	}
	if err := run("core.com_us", "us", 1e3, "core.com_allocs", func(i int) error {
		var err error
		sink, err = core.SearchCOM(ctx, sys.SearchNet(), loader, core.DivQuery{SKQuery: skq(i), K: w.k, Lambda: divLambda})
		return err
	}); err != nil {
		return nil, err
	}
	pairs, err := candidatePairs(ctx, sys, qs)
	if err != nil {
		return nil, err
	}
	bound := 2 * qs[0].DeltaMax
	dist := func(net ccam.Network) func(i int) error {
		var eng *core.DistEngine
		return func(i int) error {
			pr := pairs[i%len(pairs)]
			if eng == nil || pr.first {
				eng = core.NewDistEngine(ctx, net, bound, nil)
			}
			var err error
			sink, err = eng.Dist(pr.a, pr.b)
			return err
		}
	}
	if err := run("core.dist_blind_us", "us", 1e3, "core.dist_allocs", dist(sys.Net)); err != nil {
		return nil, err
	}
	if err := run("core.dist_oracle_us", "us", 1e3, "", dist(sys.SearchNet())); err != nil {
		return nil, err
	}
	theta := func(i, j int) float64 { return float64((i*2654435761+j*40503)%100_000) / 100_000 }
	if err := run("core.greedy_us", "us", 1e3, "", func(int) error {
		sink = core.GreedyDiversify(256, w.k, theta)
		return nil
	}); err != nil {
		return nil, err
	}
	thetaID := func(x, y obj.ID) float64 { return theta(int(min(x, y)), int(max(x, y))) }
	if err := run("core.corepair_update_us", "us", 1e3, "", func(int) error {
		// Algorithm 5's maintenance alone: 512 arrivals into a 5-pair set.
		cp := core.NewCorePairSet(w.k / 2)
		ids := make([]obj.ID, 0, 512)
		for j := 0; j < 512; j++ {
			ids = append(ids, obj.ID(j))
			if len(ids) == w.k {
				cp.InitGreedy(ids, thetaID)
			} else if len(ids) > w.k {
				cp.Update(obj.ID(j), ids, thetaID)
			}
		}
		sink = cp
		return nil
	}); err != nil {
		return nil, err
	}

	// alt: one node's landmark vector.
	vec := make([]float64, sys.Oracle.NumLandmarks())
	nodes := ds.Graph.NumNodes()
	if err := run("alt.nodevec_ns", "ns", 1, "", func(i int) error {
		return sys.Oracle.NodeVec(ctx, graph.NodeID(i*7919%nodes), vec)
	}); err != nil {
		return nil, err
	}
	out.add("alt.build_s", "s", sys.BuildTime["oracle"].Seconds())

	// sig and invindex: the signature test on edges that hold objects,
	// and a posting load that always hits (an object's own edge and
	// keywords), below the signatures.
	col := ds.Objects
	edges := col.Edges()
	if err := run("sig.passes_ns", "ns", 1, "", func(i int) error {
		sink = sys.SIF.Passes(edges[i*7919%len(edges)], qs[i%len(qs)].Terms)
		return nil
	}); err != nil {
		return nil, err
	}
	plain := &invindex.Loader{Idx: sys.SIF.Index(), Coder: invindex.GraphZCoder{G: ds.Graph}}
	if err := run("invindex.load_objects_us", "us", 1e3, "", func(i int) error {
		o := col.Get(obj.ID(i * 7919 % col.Len()))
		refs, err := plain.LoadObjects(ctx, o.Pos.Edge, o.Terms[:min(2, len(o.Terms))])
		sink = refs
		return err
	}); err != nil {
		return nil, err
	}

	// btree: point lookups of keys the tree holds.
	tree := sys.SIF.Index().Tree()
	var keys []uint64
	seen := 0
	if err := tree.Scan(0, ^uint64(0), func(k, _ uint64) bool {
		if seen%64 == 0 {
			keys = append(keys, k)
		}
		seen++
		return true
	}); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(1))
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	indexPool := sys.ObjPool(harness.KindSIF).Stats()
	gets0 := indexPool.Snapshot().LogicalRead
	getN := 0
	if err := run("btree.get_ns", "ns", 1, "", func(i int) error {
		getN++
		v, err := tree.Get(keys[i%len(keys)])
		sink = v
		return err
	}); err != nil {
		return nil, err
	}
	out.add("btree.pages_per_get", "count", ratio(float64(indexPool.Snapshot().LogicalRead-gets0), float64(getN)))

	// ccam: adjacency from a warm pool (64 nodes), then the page reads of
	// 5000 scattered lookups from a cooled 2 % pool.
	if err := run("ccam.adjacency_warm_ns", "ns", 1, "", func(i int) error {
		adj, err := sys.Net.Adjacency(ctx, graph.NodeID(i%64))
		sink = adj
		return err
	}); err != nil {
		return nil, err
	}
	if err := sys.ResetIO(); err != nil {
		return nil, err
	}
	netPool := sys.Pools()[0].Stats()
	const scattered = 5000
	for i := 0; i < scattered; i++ {
		if _, err := sys.Net.Adjacency(ctx, graph.NodeID(rng.Intn(nodes))); err != nil {
			return nil, err
		}
	}
	out.add("ccam.adjacency_cold_pages", "count", float64(netPool.Snapshot().DiskRead)/scattered)

	// storage: the buffer pool alone, on a synthetic page file.
	hitNS, err := poolProbe(64, 32)
	if err != nil {
		return nil, err
	}
	missNS, err := poolProbe(2, 512)
	if err != nil {
		return nil, err
	}
	out.add("storage.pool_hit_ns", "ns", hitNS)
	out.add("storage.pool_miss_ns", "ns", missNS)

	// sig and invindex counts: the first ops of the workload through the
	// probe system, which exposes the index's own counters.
	sys.SIF.ResetCounters()
	for i := 0; i < min(probeOps, len(p.ops)); i++ {
		if err := runOn(ctx, sys, w, p.ops[i], qs[p.ops[i].query]); err != nil {
			return nil, fmt.Errorf("op %d on the probe system: %w", i, err)
		}
	}
	c := sys.SIF.Counters()
	out.add("sig.reject_ratio", "ratio", ratio(float64(c.SigRejected), float64(c.SigRejected+c.Probes)))
	out.add("sig.false_hit_ratio", "ratio", ratio(float64(c.FalseHits), float64(c.Probes)))
	out.add("invindex.objects_per_probe", "count", ratio(float64(c.ObjectsLoaded), float64(c.Probes)))

	// server: a repeated request answered by the result cache.
	cached := server.Config{MaxInflight: 32, QueueDepth: 256, CacheSize: 4096}
	var h http.Handler
	if b.set != nil {
		h = server.NewRouter(b.set, cached).Handler()
	} else {
		h = server.New(b.db, cached).Handler()
	}
	if err := run("server.cache_hit_us", "us", 1e3, "", func(int) error {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, p.urls[0], nil))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("status %d: %s", rec.Code, rec.Body)
		}
		return nil
	}); err != nil {
		return nil, err
	}

	// dsks: pinning and releasing a read view (one per shard behind the
	// router).
	if err := run("dsks.view_open_ns", "ns", 1, "", func(int) error {
		if b.set != nil {
			mv, err := b.set.View(ctx)
			if err == nil {
				mv.Close()
			}
			return err
		}
		v, err := b.db.View(ctx)
		if err == nil {
			v.Close()
		}
		return err
	}); err != nil {
		return nil, err
	}

	// wal: one record appended and acknowledged durable, group commit at
	// its defaults.
	dir, err := os.MkdirTemp(outDir, "wal-probe-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	log, _, err := wal.Open(dir, 0, wal.Options{})
	if err != nil {
		return nil, err
	}
	defer log.Close()
	if err := run("wal.append_sync_us", "us", 1e3, "", func(i int) error {
		lsn, err := log.Append(wal.Record{Type: wal.RecInsert, ID: int32(i), Edge: 1, Offset: 0.5, Terms: []int32{1, 2}})
		if err != nil {
			return err
		}
		return log.WaitDurable(lsn)
	}); err != nil {
		return nil, err
	}
	return out.metrics, nil
}

// posPair is one pairwise distance of a query's candidate set; first
// marks the first pair of a query, where a fresh engine starts.
type posPair struct {
	a, b  graph.Position
	first bool
}

// candidatePairs lists the θ-matrix pairs of up to 64 queries' first
// eight candidates: the distances diversification actually asks for.
func candidatePairs(ctx context.Context, sys *harness.System, qs []dsks.WorkloadQuery) ([]posPair, error) {
	var pairs []posPair
	used := 0
	for _, q := range qs {
		res, err := sys.RunSK(ctx, harness.KindSIF, core.SKQuery{Pos: q.Pos, Terms: q.Terms, DeltaMax: q.DeltaMax})
		if err != nil {
			return nil, err
		}
		cands := res.Candidates[:min(8, len(res.Candidates))]
		if len(cands) < 2 {
			continue
		}
		first := true
		for i := range cands {
			for j := i + 1; j < len(cands); j++ {
				pairs = append(pairs, posPair{a: cands[i].Ref.Pos(), b: cands[j].Ref.Pos(), first: first})
				first = false
			}
		}
		if used++; used == 64 {
			break
		}
	}
	if len(pairs) == 0 {
		return nil, errors.New("no query of the workload has two candidates")
	}
	return pairs, nil
}

// runOn executes one op on the probe system.
func runOn(ctx context.Context, sys *harness.System, w workload, o op, q dsks.WorkloadQuery) error {
	sk := core.SKQuery{Pos: q.Pos, Terms: q.Terms, DeltaMax: q.DeltaMax}
	var err error
	switch o.kind {
	case kindSearch:
		_, err = sys.RunSK(ctx, harness.KindSIF, sk)
	case kindDiversified:
		_, err = sys.RunDiv(ctx, harness.KindSIF, harness.AlgoCOM, core.DivQuery{SKQuery: sk, K: w.k, Lambda: divLambda})
	case kindKNN:
		_, err = sys.RunKNN(ctx, harness.KindSIF, core.KNNQuery{Pos: q.Pos, Terms: q.Terms, K: w.k, MaxDist: q.DeltaMax})
	case kindRanked:
		_, err = sys.RunRanked(ctx, harness.KindSIF, core.RankedQuery{Pos: q.Pos, Terms: q.Terms, K: w.k, Alpha: rankedAlpha, DeltaMax: q.DeltaMax})
	case kindCollective:
		_, err = sys.RunCollective(ctx, harness.KindSIF, core.CollectiveQuery{Pos: q.Pos, Terms: q.Terms, DeltaMax: q.DeltaMax})
	}
	return err
}

// poolProbe times BufferPool.Get over pages allocated pages in a pool of
// frames frames: everything fits, or nearly every access misses.
func poolProbe(frames, pages int) (float64, error) {
	pool := storage.NewBufferPool(storage.NewPageFile(), frames, nil)
	ids := make([]storage.PageID, pages)
	for i := range ids {
		pg, err := pool.Allocate()
		if err != nil {
			return 0, err
		}
		ids[i] = pg.ID()
	}
	if err := pool.DropAll(); err != nil {
		return 0, err
	}
	ns, _, err := probe(func(i int) error {
		pg, err := pool.Get(ids[i*7919%len(ids)])
		sink = pg
		return err
	})
	return ns, err
}
