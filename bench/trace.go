package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"dsks"
	"dsks/internal/server"
	"dsks/internal/shard"
)

// Sizes of the traced run.
const (
	statsDivOps = 500 // diversified ops of the replay re-run on a view for their cost counters
	probeOps    = 500 // leading ops run on the probe system for the index's own counters
	writeOps    = 200 // direct inserts (every fourth op a remove) timed at the end
)

// traceOps is how many leading ops the traced run replays through the
// in-process handler: 2000, or four measured seconds' worth where one
// goroutine would need longer than that (cold-io sleeps through every
// buffer miss).
func traceOps(w workload) int {
	return min(2000, max(digestOps, int(4*w.opsPerSecond)))
}

// backend is the in-process twin of the child: the same engine opened
// with the options the child's flags select, behind the same handler.
type backend struct {
	db     *dsks.DB   // single node
	set    *shard.Set // sharded
	srv    *server.Server
	walDir string
}

// serverConfig mirrors the child's -cache-size/-max-inflight/-queue-depth.
var serverConfig = server.Config{MaxInflight: 32, QueueDepth: 256, CacheSize: -1}

// openBackend opens w's engine over ds.
func openBackend(ds *dsks.Dataset, w workload) (*backend, error) {
	b := &backend{}
	var err error
	if w.wal {
		if b.walDir, err = os.MkdirTemp(outDir, "wal-"); err != nil {
			return nil, err
		}
	}
	opts := w.dbOptions(b.walDir)
	if w.shards > 1 {
		// The child's defaults for the flags the workload leaves alone.
		b.set, err = shard.Open(ds.Graph, ds.Objects, ds.VocabSize, w.shards, shard.Options{
			DB: opts, HedgeAfter: 25 * time.Millisecond, MaxStaleness: 4096, LegRetries: 2, Seed: datasetSeed,
		})
		if err == nil {
			b.srv = server.NewRouter(b.set, serverConfig)
		}
	} else {
		b.db, err = dsks.OpenDataset(ds, opts)
		if err == nil {
			b.srv = server.New(b.db, serverConfig)
		}
	}
	if err != nil {
		b.close()
		return nil, err
	}
	return b, nil
}

// dbs lists the engine's databases: one, or one per shard.
func (b *backend) dbs() []*dsks.DB {
	if b.set == nil {
		return []*dsks.DB{b.db}
	}
	out := make([]*dsks.DB, b.set.Shards())
	for i := range out {
		out[i] = b.set.DB(i)
	}
	return out
}

func (b *backend) close() error {
	var err error
	switch {
	case b.set != nil:
		err = b.set.Close()
	case b.db != nil:
		err = b.db.Close()
	}
	if b.walDir != "" {
		_ = os.RemoveAll(b.walDir) // a leftover directory is ignored by git and harmless
	}
	return err
}

// diversified runs q on a freshly pinned view, as the handler would, and
// returns the engine's Result with its cost counters.
func (b *backend) diversified(ctx context.Context, q dsks.DivQuery) (dsks.Result, error) {
	if b.set != nil {
		mv, err := b.set.View(ctx)
		if err != nil {
			return dsks.Result{}, err
		}
		defer mv.Close()
		return mv.SearchDiversified(ctx, q)
	}
	v, err := b.db.View(ctx)
	if err != nil {
		return dsks.Result{}, err
	}
	defer v.Close()
	return v.SearchDiversified(ctx, q)
}

func (b *backend) insert(pos dsks.Position, terms []dsks.TermID) (dsks.ObjectID, error) {
	if b.set != nil {
		id, _, err := b.set.Insert(pos, terms)
		return id, err
	}
	return b.db.Insert(pos, terms)
}

func (b *backend) remove(id dsks.ObjectID) error {
	if b.set != nil {
		_, err := b.set.Remove(id)
		return err
	}
	return b.db.Remove(id)
}

// totals is the engine's cumulative work as its registries count it,
// summed over shards: "nodes", "edges" and "candidates" over every query
// kind, "logical.<pool>" and "disk.<pool>" for the network, index and
// oracle pools, every named counter under its own name, and the router's
// merge phase as "merge_ns" and "merges".
type totals map[string]int64

func (b *backend) totals() totals {
	t := totals{}
	for _, db := range b.dbs() {
		snap := db.Snapshot()
		for _, q := range snap.Queries {
			t["nodes"] += q.NodesPopped
			t["edges"] += q.EdgesVisited
			t["candidates"] += q.Candidates
		}
		for name, p := range snap.Pools {
			if name != "network" && name != "oracle" {
				name = "index"
			}
			t["logical."+name] += p.LogicalReads
			t["disk."+name] += p.DiskReads
		}
		for name, v := range snap.Counters {
			t[name] += v
		}
	}
	if b.set != nil {
		m := b.set.Snapshot().Queries[shard.KindMerge].Latency
		t["merge_ns"], t["merges"] = int64(m.Sum), m.Count
	}
	return t
}

// since returns t − earlier.
func (t totals) since(earlier totals) totals {
	d := totals{}
	for k, v := range t {
		d[k] = v - earlier[k]
	}
	return d
}

// span is one timed interval of one request. Spans of a request share
// Op; Parent is the span that caused this one (0 for the request's root).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
	Name    string `json:"name"`
	StartNS int64  `json:"startNs"` // since the replay began
	EndNS   int64  `json:"endNs"`
	// Derived marks a span whose boundaries the benchmark inferred: the
	// engine reports stage totals, not stage intervals, so the stages of
	// a query are laid end to end from its start; a router query is known
	// by its duration and placed at its first leg.
	Derived bool `json:"derived,omitempty"`
}

// hookEvent is one DB.SetTraceHook callback: a finished engine query.
type hookEvent struct {
	trace dsks.Trace
	at    time.Time
}

// tracer records spans in memory while the replay runs.
type tracer struct {
	start time.Time
	spans []span

	mu      sync.Mutex // the hook runs on fan-out leg goroutines
	pending []hookEvent

	expansion, postings, diversify time.Duration
}

func (tr *tracer) hook(_ dsks.QueryKind, t dsks.Trace) {
	at := time.Now()
	tr.mu.Lock()
	tr.pending = append(tr.pending, hookEvent{trace: t, at: at})
	tr.mu.Unlock()
}

func (tr *tracer) add(parent, op int, name string, start, end time.Time, derived bool) int {
	id := len(tr.spans) + 1
	tr.spans = append(tr.spans, span{
		ID: id, Parent: parent, Op: op, Name: name,
		StartNS: int64(start.Sub(tr.start)), EndNS: int64(end.Sub(tr.start)), Derived: derived,
	})
	return id
}

// query records one engine query under parent, with its stages.
func (tr *tracer) query(parent, op int, name string, ev hookEvent) {
	start := ev.at.Add(-ev.trace.Total)
	id := tr.add(parent, op, name, start, ev.at, false)
	for _, st := range []struct {
		name string
		d    time.Duration
	}{
		{"core.expansion", ev.trace.Expansion},
		{"core.postings", ev.trace.PostingReads},
		{"core.diversify", ev.trace.Diversify},
	} {
		if st.d > 0 {
			tr.add(id, op, st.name, start, start.Add(st.d), true)
			start = start.Add(st.d)
		}
	}
	tr.expansion += ev.trace.Expansion
	tr.postings += ev.trace.PostingReads
	tr.diversify += ev.trace.Diversify
}

// replay sends the first n ops of p through b's handler on this one
// goroutine, recording op → server.handle → dsks.query → core stages
// (behind the router: → shard.query → shard.leg×n → core stages).
func (tr *tracer) replay(b *backend, p *plan, n int, fails *failures) []sample {
	for _, db := range b.dbs() {
		db.SetTraceHook(tr.hook)
		defer db.SetTraceHook(nil)
	}
	h := b.srv.Handler()
	samples := make([]sample, n)
	tr.start = time.Now()
	for i := 0; i < n; i++ {
		tr.mu.Lock()
		tr.pending = tr.pending[:0]
		tr.mu.Unlock()

		opStart := time.Now()
		req := httptest.NewRequest(http.MethodGet, p.urls[i], nil)
		rec := httptest.NewRecorder()
		hStart := time.Now()
		h.ServeHTTP(rec, req)
		hEnd := time.Now()
		body := rec.Body.Bytes()
		opEnd := time.Now()

		o := p.ops[i]
		s := sample{kind: o.kind, latency: hEnd.Sub(hStart), bytes: len(body)}
		if rec.Code != http.StatusOK {
			fails.add("traced op %d %s: status %d: %s", i, p.urls[i], rec.Code, body)
		} else if a, err := checkResponse(p.w, o, p.queries[o.query], body); err != nil {
			fails.add("traced op %d %s: %v", i, p.urls[i], err)
		} else {
			s.ok, s.answer = true, a
		}
		samples[i] = s

		root := tr.add(0, i, "op", opStart, opEnd, false)
		handle := tr.add(root, i, "server.handle", hStart, hEnd, false)
		tr.mu.Lock()
		events := append([]hookEvent(nil), tr.pending...)
		tr.mu.Unlock()
		if b.set == nil {
			for _, ev := range events {
				tr.query(handle, i, "dsks.query", ev)
			}
			continue
		}
		if !s.ok {
			continue
		}
		qStart := hEnd
		for _, ev := range events {
			if legStart := ev.at.Add(-ev.trace.Total); legStart.Before(qStart) {
				qStart = legStart
			}
		}
		if len(events) == 0 || qStart.Before(hStart) {
			qStart = hStart
		}
		qEnd := qStart.Add(s.elapsed)
		if qEnd.After(hEnd) {
			qEnd = hEnd
		}
		router := tr.add(handle, i, "shard.query", qStart, qEnd, true)
		for _, ev := range events {
			tr.query(router, i, "shard.leg", ev)
		}
	}
	return samples
}

// selfTimes returns, by span name, the summed self time: a span's
// duration minus the part of it its child spans cover.
func (tr *tracer) selfTimes() map[string]time.Duration {
	children := make(map[int][]span)
	for _, s := range tr.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[string]time.Duration)
	for _, s := range tr.spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
		covered, upto := int64(0), s.StartNS
		for _, k := range kids {
			lo, hi := max(k.StartNS, upto), min(k.EndNS, s.EndNS)
			if hi > lo {
				covered += hi - lo
				upto = hi
			}
		}
		self[s.Name] += time.Duration(s.EndNS - s.StartNS - covered)
	}
	return self
}

// write stores the spans as bench/out/trace-<workload>.json.
func (tr *tracer) write(w workload, seed int64) error {
	f, err := os.Create(filepath.Join(outDir, "trace-"+w.name+".json"))
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{w.name, seed, tr.spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// us renders a duration as fractional microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is a/b, or 0 when b is 0: a layer the workload does not reach
// reports 0, since every run must print every per-layer metric.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runTrace measures w layer by layer: a short served pass for what only
// the process boundary shows, the traced in-process replay, the cost
// counters of its diversified ops, the direct layer probes, and a timed
// burst of writes.
func runTrace(ctx context.Context, bin string, w workload, seed int64, seconds, passes int) (*outcome, error) {
	genStart := time.Now()
	ds, err := dsks.GeneratePreset(datasetPreset, datasetScale, datasetSeed)
	if err != nil {
		return nil, err
	}
	generate := time.Since(genStart)
	traced := traceOps(w)
	n := max(passOps(w, seconds, passes), traced)
	p, err := newPlan(ds, w, n, seed)
	if err != nil {
		return nil, err
	}
	fails := &failures{}
	out := &outcome{}

	// The served pass: one boot, the digested prefix, one pass.
	served, rss, err := servedPass(ctx, bin, ds, p, seed, fails, out)
	if err != nil {
		return nil, err
	}

	// The traced replay.
	b, err := openBackend(ds, w)
	if err != nil {
		return nil, err
	}
	defer b.close()
	before := b.totals()
	tr := &tracer{}
	samples := tr.replay(b, p, traced, fails)
	work := b.totals().since(before)
	out.attempted += traced
	for i := 0; i < digestOps; i++ {
		if s, c := samples[i], served[i]; s.ok && c.ok && s.digest != c.digest {
			fails.add("op %d %s: the in-process answer differs from the served one", i, p.urls[i])
		}
	}
	mismatches := 0
	if b.set != nil {
		if mismatches, err = singleNodeMismatches(ds, p, samples, out); err != nil {
			return nil, err
		}
	}

	// Cost counters of the diversified ops, from the engine's own Result.
	var div dsks.SearchStats
	divs, early := 0, 0
	for i := 0; i < traced && divs < statsDivOps; i++ {
		if p.ops[i].kind != kindDiversified {
			continue
		}
		q := p.queries[p.ops[i].query]
		res, err := b.diversified(ctx, dsks.DivQuery{
			SKQuery: dsks.SKQuery{Pos: q.Pos, Terms: q.Terms, DeltaMax: q.DeltaMax}, K: w.k, Lambda: divLambda,
		})
		if err != nil {
			return nil, fmt.Errorf("diversified op %d on a view: %w", i, err)
		}
		div.Add(res.Stats)
		if res.Stats.EarlyTerminate {
			early++
		}
		divs++
	}

	probes, err := runProbes(ds, p, b)
	if err != nil {
		return nil, err
	}

	// The write burst goes last: inserts grow the collection the probe
	// system and the engine share.
	insertUS, err := timeWrites(ds, b, seed)
	if err != nil {
		return nil, err
	}
	wal := b.totals()

	if err := tr.write(w, seed); err != nil {
		return nil, err
	}
	out.failed = fails.count
	out.notes = append(out.notes, fails.first...)

	// Everything below turns the collected numbers into named metrics.
	nOps := float64(traced)
	self := tr.selfTimes()
	var rootTotal time.Duration
	for _, s := range tr.spans {
		if s.Parent == 0 {
			rootTotal += time.Duration(s.EndNS - s.StartNS)
		}
	}
	out.add("server.self_us", "us", us(self["server.handle"])/nOps)
	out.add("shard.self_us", "us", us(self["shard.query"])/nOps)
	out.add("shard.merge_us", "us", ratio(float64(work["merge_ns"])/1e3, float64(work["merges"])))
	var legs, pruned float64
	elapsed := make([][]float64, numKinds)
	for _, s := range samples {
		if s.ok {
			legs += float64(s.legs)
			pruned += float64(s.pruned)
			elapsed[s.kind] = append(elapsed[s.kind], us(s.elapsed))
		}
	}
	out.add("shard.legs_per_op", "count", legs/nOps)
	out.add("shard.pruned_legs_per_op", "count", pruned/nOps)
	out.add("shard.single_node_mismatches", "count", float64(mismatches))
	for kind, name := range [numKinds]string{"dsks.search_us", "dsks.div_us", "dsks.knn_us", "dsks.ranked_us", "dsks.collective_us"} {
		out.add(name, "us", median(elapsed[kind]))
	}
	out.add("dsks.insert_us", "us", insertUS)
	out.add("wal.records_per_fsync", "count", ratio(float64(wal["wal_synced_records_total"]), float64(wal["wal_fsyncs_total"])))

	out.add("core.expansion_us", "us", us(tr.expansion)/nOps)
	out.add("core.postings_us", "us", us(tr.postings)/nOps)
	out.add("core.diversify_us", "us", us(tr.diversify)/nOps)
	out.add("core.nodes_popped_per_op", "count", float64(work["nodes"])/nOps)
	out.add("core.edges_visited_per_op", "count", float64(work["edges"])/nOps)
	out.add("core.candidates_per_op", "count", float64(work["candidates"])/nOps)
	nDiv := float64(divs)
	out.add("core.pair_dists_per_div", "count", ratio(float64(div.PairDistCalcs), nDiv))
	out.add("core.dist_settled_per_div", "count", ratio(float64(div.DistSettled), nDiv))
	out.add("core.pruned_per_div", "count", ratio(float64(div.Pruned), nDiv))
	out.add("core.early_term_ratio", "ratio", ratio(float64(early), nDiv))
	out.add("alt.lb_prunes_per_div", "count", ratio(float64(div.OracleLBPrunes), nDiv))
	out.add("alt.ub_hits_per_div", "count", ratio(float64(div.OracleUBHits), nDiv))
	out.add("alt.pops_saved_per_div", "count", ratio(float64(div.OraclePopsSaved), nDiv))
	out.add("alt.resolved_ratio", "ratio", ratio(float64(div.OracleLBPrunes+div.OracleUBHits), float64(div.PairDistCalcs)))

	var logical, disk int64
	for _, pool := range []string{"network", "index", "oracle"} {
		l, d := work["logical."+pool], work["disk."+pool]
		out.add("storage."+pool+"_hit_ratio", "ratio", ratio(float64(l-d), float64(l)))
		logical += l
		disk += d
	}
	out.add("storage.network_page_reads_per_op", "count", float64(work["disk.network"])/nOps)
	out.add("storage.index_page_reads_per_op", "count", float64(work["disk.index"])/nOps)
	out.add("storage.logical_reads_per_op", "count", float64(logical)/nOps)
	out.add("storage.sim_io_ms_per_op", "ms", float64(disk)*ms(w.iolat)/nOps)

	out.metrics = append(out.metrics, probes...)
	out.add("dataset.generate_s", "s", generate.Seconds())
	var build time.Duration
	var indexBytes int64
	for _, db := range b.dbs() {
		build += db.BuildTime()
		indexBytes += db.IndexSizeBytes()
	}
	out.add("harness.build_s", "s", build.Seconds())
	out.add("harness.index_bytes", "B", float64(indexBytes))
	out.add("process.rss_peak_mb", "MB", rss)
	out.add("trace.coverage", "ratio", 1-ratio(float64(self["op"]), float64(rootTotal)))
	out.add("trace.ops", "count", nOps)
	return out, nil
}

// servedPass boots the child once and runs the digested prefix (as
// warm-up, without the writer) and one pass of p, for the numbers only
// the process boundary shows: the client-side edge, the write path as
// served, peak memory. It returns the prefix's samples and the child's
// peak resident set in MB.
func servedPass(ctx context.Context, bin string, ds *dsks.Dataset, p *plan, seed int64, fails *failures, out *outcome) ([]sample, float64, error) {
	w := p.w
	wr, err := newWriter(ds, w, seed)
	if err != nil {
		return nil, 0, err
	}
	c, err := bootChild(ctx, bin, w)
	if err != nil {
		return nil, 0, err
	}
	defer c.kill()
	t := newTarget(c.addr, w.conns())
	defer t.close()

	first := runPass(t, p, 0, digestOps, nil, fails)
	res, err := timedPass(c, t, p, 0, len(p.ops), wr, fails)
	if err != nil {
		return nil, 0, err
	}
	out.attempted += digestOps + len(p.ops) + len(res.writes)
	if wr != nil {
		out.attempted += wr.verify(t, verifyWrites, fails)
	}
	rss, err := c.rssPeakMB()
	if err != nil {
		return nil, 0, err
	}
	if err := c.stop(); err != nil {
		return nil, 0, err
	}
	out.failed = fails.count
	summarizeServed(out, []passResult{res})
	return first.samples, rss, nil
}

// singleNodeMismatches replays the digested prefix on an unsharded
// engine over the same data and counts the ops the router answers
// differently. Collective ops are left out: their sharded form is a
// documented approximation (best single shard). The count is reported, not
// failed: it is not zero at the seed commit (bench/README.md, "Findings"),
// and a benchmark that is red on some seeds is no baseline.
func singleNodeMismatches(ds *dsks.Dataset, p *plan, sharded []sample, out *outcome) (int, error) {
	db, err := dsks.OpenDataset(ds, dsks.Options{Index: dsks.IndexSIF})
	if err != nil {
		return 0, err
	}
	defer db.Close()
	quiet := &failures{}
	ref := (&tracer{}).replay(&backend{db: db, srv: server.New(db, serverConfig)}, p, digestOps, quiet)
	n := 0
	for i, s := range ref {
		if p.ops[i].kind == kindCollective || !s.ok || !sharded[i].ok {
			continue
		}
		if s.digest != sharded[i].digest && !oddKShortfall(p.w.k, s.chosen, sharded[i].chosen) {
			n++
			out.notes = append(out.notes, fmt.Sprintf("op %d %s: the sharded answer differs from the single-node one", i, p.urls[i]))
		}
	}
	return n, nil
}

// oddKShortfall recognises the one known difference between the two
// engines at the seed commit: for an odd k, single-node COM returns its
// ⌊k/2⌋ core pairs and no k-th object, while the router's greedy over the
// merged candidates adds it. The single-node set must then be the sharded
// set minus one object; anything else counts as a mismatch.
func oddKShortfall(k int, single, sharded []int64) bool {
	if k%2 == 0 || len(sharded) != k || len(single) != k-1 {
		return false
	}
	in := make(map[int64]bool, len(sharded))
	for _, id := range sharded {
		in[id] = true
	}
	for _, id := range single {
		if !in[id] {
			return false
		}
	}
	return true
}

// timeWrites applies writeOps direct writes to the engine — inserts, every
// fourth op a remove of the oldest — and returns the median insert time
// in microseconds. Behind a WAL each insert is acknowledged durable.
func timeWrites(ds *dsks.Dataset, b *backend, seed int64) (float64, error) {
	qs, err := writerQueries(ds, seed)
	if err != nil {
		return 0, err
	}
	var ids []dsks.ObjectID
	var took []float64
	for i := 1; i <= writeOps; i++ {
		if i%4 == 0 {
			if err := b.remove(ids[0]); err != nil {
				return 0, fmt.Errorf("removing object %d: %w", ids[0], err)
			}
			ids = ids[1:]
			continue
		}
		q := qs[i%len(qs)]
		start := time.Now()
		id, err := b.insert(q.Pos, q.Terms)
		if err != nil {
			return 0, fmt.Errorf("inserting at edge %d: %w", q.Pos.Edge, err)
		}
		took = append(took, us(time.Since(start)))
		ids = append(ids, id)
	}
	return median(took), nil
}
