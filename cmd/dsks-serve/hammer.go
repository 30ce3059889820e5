package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dsks"
)

// The load driver: replays a synthetic query mix against a running
// dsks-serve and prints throughput, latency percentiles, status counts
// and the server's cache behavior. The mix is derived from the same
// preset/scale/seed the server was booted with, so every query lands on
// real edges and keywords; a bounded set of distinct queries (-distinct)
// makes the result cache observable. The mix may include "insert" and
// "remove" kinds, which POST real mutations: inserts bank their acked
// object IDs in a shared pool, removes draw from it, and -strict
// asserts that each worker observes a strictly increasing commit LSN
// across its own acked mutations.

var (
	hammerTarget    *string
	hammerN         *int
	hammerC         *int
	hammerDistinct  *int
	hammerMix       *string
	hammerStrict    *bool
	hammerColdOK    *bool
	hammerWant429   *bool
	hammerTimeout   *time.Duration
	hammerChaos     *bool
	hammerChaosSpec *string
)

// hammerFlags registers the load-driver flags.
func hammerFlags(fs *flag.FlagSet) {
	hammerTarget = fs.String("target", "http://127.0.0.1:8080", "server base URL for -hammer")
	hammerN = fs.Int("n", 1000, "hammer: total requests")
	hammerC = fs.Int("c", 8, "hammer: concurrent workers")
	hammerDistinct = fs.Int("distinct", 32, "hammer: distinct queries in the mix (repeats exercise the cache)")
	hammerMix = fs.String("mix", "search:4,diversified:3,knn:2,ranked:1", "hammer: endpoint mix as kind:weight pairs (kinds include insert and remove)")
	hammerStrict = fs.Bool("strict", false, "hammer: exit non-zero on any 5xx, a 206 partial, or a cold cache")
	hammerColdOK = fs.Bool("allow-cold-cache", false, "hammer: strict runs tolerate zero cache hits (for servers with the cache disabled)")
	hammerWant429 = fs.Bool("expect-429", false, "hammer: exit non-zero unless load shedding (429 + Retry-After) was observed")
	hammerTimeout = fs.Duration("client-timeout", 30*time.Second, "hammer: per-request client timeout")
	hammerChaos = fs.Bool("chaos", false, "hammer: run the chaos campaign (server must be started with -enable-chaos)")
	hammerChaosSpec = fs.String("chaos-spec", "read:every=1", "hammer: fault spec installed during the chaos phase")
}

// hammerResult is one request's outcome.
type hammerResult struct {
	status     int
	latency    time.Duration
	cacheHit   bool
	retryAfter bool
	version    uint64 // commit LSN acked with a mutation, 0 otherwise
}

// hammerReq is one entry in the weighted request mix: a GET query, or a
// POST mutation carrying its JSON body.
type hammerReq struct {
	kind string
	url  string
	body []byte // insert body; for "remove" the fallback when no ID is banked
}

// idPool banks the object IDs acked by insert requests so remove
// requests can target objects that actually exist.
type idPool struct {
	mu  sync.Mutex
	ids []int64
}

func (p *idPool) put(id int64) {
	p.mu.Lock()
	p.ids = append(p.ids, id)
	p.mu.Unlock()
}

func (p *idPool) take() (int64, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.ids) == 0 {
		return 0, false
	}
	id := p.ids[len(p.ids)-1]
	p.ids = p.ids[:len(p.ids)-1]
	return id, true
}

// runHammer drives the load and reports.
func runHammer(preset string, scale int, seed int64) error {
	reqs, err := hammerMixReqs(preset, scale, seed)
	if err != nil {
		return err
	}
	base := strings.TrimRight(*hammerTarget, "/")
	client := &http.Client{Timeout: *hammerTimeout}

	if err := waitHealthy(client, base); err != nil {
		return err
	}

	if *hammerChaos {
		var urls []string
		for _, r := range reqs {
			if r.body == nil {
				urls = append(urls, r.url)
			}
		}
		if len(urls) == 0 {
			return fmt.Errorf("-chaos needs at least one query kind in -mix %q", *hammerMix)
		}
		return runChaos(client, base, urls)
	}

	n, c := *hammerN, *hammerC
	if c < 1 {
		c = 1
	}
	results := make([]hammerResult, n)
	pool := &idPool{}
	var next, monoViolations atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < c; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each worker issues sequentially, and every acked mutation
			// publishes a fresh commit LSN, so the LSNs a single worker
			// observes across its own mutations must strictly increase.
			var lastVer uint64
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				r := issue(client, base, reqs[i%len(reqs)], pool)
				if r.version > 0 {
					if r.version <= lastVer {
						monoViolations.Add(1)
					}
					lastVer = r.version
				}
				results[i] = r
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	return report(client, base, results, elapsed, monoViolations.Load())
}

// runChaos drives the fault-injection campaign: warm up, install the
// fault spec through /v1/chaos, assert the server degrades into 503 +
// Retry-After shedding (never corrupt output), heal the spec, and assert
// the half-open probe restores service. Any violated invariant is a
// non-zero exit.
func runChaos(client *http.Client, base string, urls []string) error {
	fmt.Printf("chaos: warmup against %s\n", base)
	warm := urls[0]
	for i := 0; i < 10; i++ {
		status, body, _ := issueBody(client, base+warm)
		if status != http.StatusOK {
			return fmt.Errorf("chaos warmup: query status %d: %s", status, body)
		}
		if !json.Valid(body) {
			return fmt.Errorf("chaos warmup: query returned invalid JSON: %q", body)
		}
	}

	spec := *hammerChaosSpec
	fmt.Printf("chaos: installing fault spec %q\n", spec)
	if err := postChaos(client, base, spec); err != nil {
		return err
	}
	// Make sure the faults are cleared even if an assertion below fails,
	// so a -chaos run never leaves the target server broken.
	defer postChaos(client, base, "")

	// Chaos phase: walk the full mix so most requests miss the result
	// cache and hit faulting storage. Every response must be a storage
	// failure (500), a breaker shed (503 + Retry-After), or an intact
	// 200 that provably touched no storage (a cache hit, or a query
	// reporting zero disk reads) — never a corrupt or truncated body.
	var saw500, saw503, sawRetryAfter, noStorage int
	for i := 0; i < 100 && saw503 < 5; i++ {
		status, body, hdr := issueBody(client, base+urls[i%len(urls)])
		switch status {
		case http.StatusInternalServerError:
			saw500++
		case http.StatusServiceUnavailable:
			saw503++
			if hdr.Get("Retry-After") != "" {
				sawRetryAfter++
			}
		case http.StatusOK:
			var reads struct {
				DiskReads int64 `json:"diskReads"`
			}
			if err := json.Unmarshal(body, &reads); err != nil {
				return fmt.Errorf("chaos: 200 with invalid JSON body %q: %v", body, err)
			}
			if hdr.Get("X-Dsks-Cache") != "hit" && reads.DiskReads != 0 {
				return fmt.Errorf("chaos: uncached 200 with %d disk reads for %s under a %q campaign",
					reads.DiskReads, urls[i%len(urls)], spec)
			}
			noStorage++
		case http.StatusBadRequest, http.StatusNotFound, http.StatusTooManyRequests:
			// Client-class outcomes (malformed mix entries, admission
			// shedding) say nothing about storage; skip them.
		default:
			return fmt.Errorf("chaos: unexpected status %d: %s", status, body)
		}
	}
	fmt.Printf("chaos: degraded phase: %d storage errors, %d shed (Retry-After on %d), %d storage-free 200s\n",
		saw500, saw503, sawRetryAfter, noStorage)
	if saw500 == 0 {
		return fmt.Errorf("chaos: no storage errors observed — is the spec %q reaching the pools?", spec)
	}
	if saw503 == 0 {
		return fmt.Errorf("chaos: circuit breaker never opened (no 503s in %d requests)", saw500+noStorage)
	}
	if sawRetryAfter != saw503 {
		return fmt.Errorf("chaos: %d of %d 503s missing Retry-After", saw503-sawRetryAfter, saw503)
	}

	fmt.Println("chaos: clearing fault spec")
	if err := postChaos(client, base, ""); err != nil {
		return err
	}
	// Recovery must come from storage, not the result cache: only an
	// uncached 200 proves the half-open probe ran and closed the breaker.
	deadline := time.Now().Add(30 * time.Second)
	recovered := false
	for i := 0; time.Now().Before(deadline); i++ {
		status, body, hdr := issueBody(client, base+urls[i%len(urls)])
		if status == http.StatusOK && hdr.Get("X-Dsks-Cache") != "hit" {
			if !json.Valid(body) {
				return fmt.Errorf("chaos: post-recovery query returned invalid JSON: %q", body)
			}
			recovered = true
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	if !recovered {
		return fmt.Errorf("chaos: server did not recover within 30s of clearing faults")
	}
	if status, body, _ := issueBody(client, base+"/healthz"); status != http.StatusOK {
		return fmt.Errorf("chaos: healthz after recovery: status %d: %s", status, body)
	}

	var varz struct {
		Health  string `json:"health"`
		Metrics struct {
			Counters map[string]int64 `json:"Counters"`
		} `json:"metrics"`
	}
	if status, body, _ := issueBody(client, base+"/varz"); status == http.StatusOK {
		if err := json.Unmarshal(body, &varz); err == nil {
			fmt.Printf("chaos: recovered (health %q); breaker opened %d times, shed %d requests\n",
				varz.Health,
				varz.Metrics.Counters["server_breaker_opened_total"],
				varz.Metrics.Counters["server_breaker_shed_total"])
			if varz.Metrics.Counters["server_breaker_opened_total"] == 0 {
				return fmt.Errorf("chaos: server_breaker_opened_total stayed zero")
			}
		}
	}
	fmt.Println("chaos: PASS — shed under faults, recovered after heal, no corrupt responses")
	return nil
}

// postChaos installs (or, with an empty spec, clears) the server's fault
// injection through POST /v1/chaos.
func postChaos(client *http.Client, base, spec string) error {
	payload, _ := json.Marshal(map[string]string{"spec": spec})
	resp, err := client.Post(base+"/v1/chaos", "application/json", bytes.NewReader(payload))
	if err != nil {
		return fmt.Errorf("chaos: POST /v1/chaos: %w", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return fmt.Errorf("chaos: /v1/chaos not found — start the server with -enable-chaos")
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("chaos: POST /v1/chaos spec %q: status %d: %s", spec, resp.StatusCode, body)
	}
	return nil
}

// issueBody performs one GET and returns status, body and headers.
func issueBody(client *http.Client, url string) (int, []byte, http.Header) {
	resp, err := client.Get(url)
	if err != nil {
		return 0, []byte(err.Error()), http.Header{}
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, body, resp.Header
}

// issue performs one request from the mix. Queries are GETs; insert and
// remove are POSTs whose acked version is recorded for the monotonicity
// check, with acked insert IDs banked in the pool for later removes.
func issue(client *http.Client, base string, req hammerReq, pool *idPool) hammerResult {
	body := req.body
	if req.kind == "remove" {
		if id, ok := pool.take(); ok {
			body, _ = json.Marshal(map[string]int64{"id": id})
		} else {
			// Nothing banked yet: fall back to the insert this entry
			// carries, so the pool fills instead of spinning on 404s.
			req.kind, req.url = "insert", "/v1/insert"
		}
	}

	t0 := time.Now()
	var resp *http.Response
	var err error
	if body != nil {
		resp, err = client.Post(base+req.url, "application/json", bytes.NewReader(body))
	} else {
		resp, err = client.Get(base + req.url)
	}
	if err != nil {
		return hammerResult{status: 0, latency: time.Since(t0)}
	}
	defer resp.Body.Close()

	out := hammerResult{
		status:     resp.StatusCode,
		latency:    time.Since(t0),
		cacheHit:   resp.Header.Get("X-Dsks-Cache") == "hit",
		retryAfter: resp.Header.Get("Retry-After") != "",
	}
	if body != nil && resp.StatusCode == http.StatusOK {
		var ack struct {
			ID      *int64 `json:"id"`
			LSN     uint64 `json:"lsn"`
			Version uint64 `json:"version"`
		}
		if json.NewDecoder(resp.Body).Decode(&ack) == nil {
			// Prefer the commit LSN; fall back to the legacy mutation
			// counter when hammering an older server.
			out.version = ack.LSN
			if out.version == 0 {
				out.version = ack.Version
			}
			if req.kind == "insert" && ack.ID != nil {
				pool.put(*ack.ID)
			}
		}
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	return out
}

// waitHealthy polls /healthz until the server answers (or ~5s pass).
func waitHealthy(client *http.Client, base string) error {
	var last error
	for i := 0; i < 50; i++ {
		resp, err := client.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			last = fmt.Errorf("healthz: status %d", resp.StatusCode)
		} else {
			last = err
		}
		time.Sleep(100 * time.Millisecond)
	}
	return fmt.Errorf("server at %s never became healthy: %w", base, last)
}

// hammerMixReqs builds the weighted request mix over the preset's
// workload: query URLs for the read kinds, pre-marshaled POST bodies for
// insert and remove.
func hammerMixReqs(preset string, scale int, seed int64) ([]hammerReq, error) {
	ds, err := dsks.GeneratePreset(dsks.Preset(preset), scale, seed)
	if err != nil {
		return nil, err
	}
	distinct := *hammerDistinct
	if distinct < 1 {
		distinct = 1
	}
	ws, err := dsks.GenerateWorkload(ds.Objects, ds.VocabSize, dsks.WorkloadConfig{
		NumQueries: distinct, Keywords: 2, Seed: seed + 1,
	})
	if err != nil {
		return nil, err
	}

	// Mutations reuse the workload's positions and keywords so inserts
	// land on real edges with in-vocabulary terms.
	insertBody := func(q dsks.WorkloadQuery) []byte {
		b, _ := json.Marshal(map[string]any{
			"edge": q.Pos.Edge, "offset": q.Pos.Offset, "terms": q.Terms,
		})
		return b
	}

	builders := map[string]func(q dsks.WorkloadQuery) string{
		"search": func(q dsks.WorkloadQuery) string {
			return fmt.Sprintf("/v1/search?edge=%d&offset=%g&terms=%s&deltaMax=%g",
				q.Pos.Edge, q.Pos.Offset, terms(q.Terms), q.DeltaMax)
		},
		"diversified": func(q dsks.WorkloadQuery) string {
			return fmt.Sprintf("/v1/diversified?edge=%d&offset=%g&terms=%s&deltaMax=%g&k=5&lambda=0.8",
				q.Pos.Edge, q.Pos.Offset, terms(q.Terms), q.DeltaMax)
		},
		"knn": func(q dsks.WorkloadQuery) string {
			// The workload's δmax bounds the expansion: unbounded kNN legs
			// on an edge-disjoint shard must walk far past their few owned
			// objects, and the bound is what the router prunes shards with.
			return fmt.Sprintf("/v1/knn?edge=%d&offset=%g&terms=%s&k=5&maxDist=%g",
				q.Pos.Edge, q.Pos.Offset, terms(q.Terms), q.DeltaMax)
		},
		"ranked": func(q dsks.WorkloadQuery) string {
			return fmt.Sprintf("/v1/ranked?edge=%d&offset=%g&terms=%s&deltaMax=%g&k=5&alpha=0.5",
				q.Pos.Edge, q.Pos.Offset, terms(q.Terms), q.DeltaMax)
		},
		"collective": func(q dsks.WorkloadQuery) string {
			return fmt.Sprintf("/v1/collective?edge=%d&offset=%g&terms=%s&deltaMax=%g",
				q.Pos.Edge, q.Pos.Offset, terms(q.Terms), q.DeltaMax)
		},
	}

	var reqs []hammerReq
	qi := 0
	for _, part := range strings.Split(*hammerMix, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), ":", 2)
		kind := kv[0]
		build, query := builders[kind]
		if !query && kind != "insert" && kind != "remove" {
			return nil, fmt.Errorf("unknown mix kind %q (want insert, remove, %s)", kind, keys(builders))
		}
		weight := 1
		if len(kv) == 2 {
			if _, err := fmt.Sscanf(kv[1], "%d", &weight); err != nil {
				return nil, fmt.Errorf("mix weight %q: %w", kv[1], err)
			}
		}
		for i := 0; i < weight; i++ {
			q := ws[qi%len(ws)]
			qi++
			switch kind {
			case "insert":
				reqs = append(reqs, hammerReq{kind: kind, url: "/v1/insert", body: insertBody(q)})
			case "remove":
				// The body is the fallback insert issued while the ID pool
				// is still empty; see issue.
				reqs = append(reqs, hammerReq{kind: kind, url: "/v1/remove", body: insertBody(q)})
			default:
				reqs = append(reqs, hammerReq{kind: kind, url: build(q)})
			}
		}
	}
	if len(reqs) == 0 {
		return nil, fmt.Errorf("empty mix %q", *hammerMix)
	}
	return reqs, nil
}

func terms(ts []dsks.TermID) string {
	parts := make([]string, len(ts))
	for i, t := range ts {
		parts[i] = fmt.Sprint(t)
	}
	return strings.Join(parts, ",")
}

func keys(m map[string]func(dsks.WorkloadQuery) string) string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return strings.Join(out, ", ")
}

// report prints the run summary and enforces the strict assertions.
func report(client *http.Client, base string, results []hammerResult, elapsed time.Duration, monoViolations int64) error {
	statuses := map[int]int{}
	var lats []time.Duration
	var hits, five, shed429, retryAfter, acked int
	for _, r := range results {
		statuses[r.status]++
		lats = append(lats, r.latency)
		if r.cacheHit {
			hits++
		}
		if r.version > 0 {
			acked++
		}
		if r.status >= 500 {
			five++
		}
		if r.status == http.StatusTooManyRequests {
			shed429++
			if r.retryAfter {
				retryAfter++
			}
		}
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })

	n := len(results)
	fmt.Printf("hammer: %d requests in %v (%.0f req/s)\n", n, elapsed.Round(time.Millisecond),
		float64(n)/elapsed.Seconds())
	var codes []int
	for code := range statuses {
		codes = append(codes, code)
	}
	sort.Ints(codes)
	for _, code := range codes {
		label := fmt.Sprint(code)
		if code == 0 {
			label = "transport-error"
		}
		fmt.Printf("  status %s: %d\n", label, statuses[code])
	}
	fmt.Printf("  latency p50 %v  p95 %v  p99 %v  max %v\n",
		pct(lats, 0.50), pct(lats, 0.95), pct(lats, 0.99), lats[n-1])
	fmt.Printf("  client-observed cache hits: %d/%d\n", hits, n)
	if acked > 0 {
		fmt.Printf("  acked mutations: %d (LSN monotonicity violations: %d)\n", acked, monoViolations)
	}
	if shed429 > 0 {
		fmt.Printf("  shed with 429: %d (Retry-After present on %d)\n", shed429, retryAfter)
	}

	// The server's own view: cache counters, and — when the target is the
	// scatter-gather router — the per-shard request spread and routing
	// pruning rate.
	var varz struct {
		Shards []struct {
			LSN         uint64 `json:"lsn"`
			LiveObjects int    `json:"liveObjects"`
			Requests    int64  `json:"requests"`
			Errors      int64  `json:"errors"`
		} `json:"shards"`
		Metrics struct {
			Counters map[string]int64 `json:"Counters"`
		} `json:"metrics"`
	}
	if resp, err := client.Get(base + "/varz"); err == nil {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err := json.Unmarshal(body, &varz); err == nil {
			fmt.Printf("  server cache: %d hits, %d misses, %d stale evictions\n",
				varz.Metrics.Counters["server_cache_hits_total"],
				varz.Metrics.Counters["server_cache_misses_total"],
				varz.Metrics.Counters["server_cache_stale_evictions_total"])
			if c := varz.Metrics.Counters; c["oracle_lb_prunes_total"] > 0 ||
				c["oracle_ub_hits_total"] > 0 || c["oracle_astar_pops_saved_total"] > 0 {
				fmt.Printf("  oracle: %d lower-bound prunes, %d upper-bound hits, %d A* pops saved (%d nodes settled)\n",
					c["oracle_lb_prunes_total"], c["oracle_ub_hits_total"],
					c["oracle_astar_pops_saved_total"], c["dist_settled_total"])
			}
			if len(varz.Shards) > 0 {
				legs := varz.Metrics.Counters["router_fanout_legs_total"]
				pruned := varz.Metrics.Counters["router_pruned_legs_total"]
				fmt.Printf("  router: %d shards, %d fan-out legs run, %d pruned (%.0f%% of routed)\n",
					len(varz.Shards), legs, pruned,
					100*float64(pruned)/float64(max64(legs+pruned, 1)))
				for i, sh := range varz.Shards {
					fmt.Printf("    shard %d: lsn %d, %d objects, %d requests, %d errors\n",
						i, sh.LSN, sh.LiveObjects, sh.Requests, sh.Errors)
				}
			}
		}
	}

	if *hammerStrict {
		if five > 0 {
			return fmt.Errorf("strict: %d 5xx responses", five)
		}
		if statuses[0] > 0 {
			return fmt.Errorf("strict: %d transport errors", statuses[0])
		}
		if monoViolations > 0 {
			return fmt.Errorf("strict: %d mutation acks with a non-increasing commit LSN", monoViolations)
		}
		// A 206 means a shard leg failed and the router settled for the
		// survivors; with replicas configured, failover should have turned
		// it into a full answer, so strict runs treat partials as failures.
		if statuses[http.StatusPartialContent] > 0 {
			return fmt.Errorf("strict: %d partial (206) responses", statuses[http.StatusPartialContent])
		}
		// Mutation mixes invalidate the result cache on every acked write,
		// so a cold cache is expected there; only query-only runs must hit.
		if hits == 0 && acked == 0 && !*hammerColdOK {
			return fmt.Errorf("strict: no cache hits observed over %d requests", n)
		}
	}
	if *hammerWant429 {
		if shed429 == 0 {
			return fmt.Errorf("expect-429: no load shedding observed")
		}
		if retryAfter != shed429 {
			return fmt.Errorf("expect-429: %d of %d 429s missing Retry-After", shed429-retryAfter, shed429)
		}
	}
	return nil
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// pct reads the q-quantile of sorted latencies.
func pct(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
