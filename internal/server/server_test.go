package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"dsks"
	"dsks/internal/fault"
	"dsks/internal/shard"
)

// testDB builds a small synthetic database with a workload whose queries
// return candidates.
func testDB(t testing.TB) (*dsks.DB, []dsks.WorkloadQuery) {
	t.Helper()
	return openTestDB(t, dsks.Options{Index: dsks.IndexSIF})
}

// openTestDB is testDB with the database options given.
func openTestDB(t testing.TB, opts dsks.Options) (*dsks.DB, []dsks.WorkloadQuery) {
	t.Helper()
	ds, err := dsks.GeneratePreset(dsks.PresetSYN, 2000, 7)
	if err != nil {
		t.Fatal(err)
	}
	db, err := dsks.OpenDataset(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = db.Close() })
	checkNoPins(t, db)
	ws, err := dsks.GenerateWorkload(ds.Objects, ds.VocabSize, dsks.WorkloadConfig{
		NumQueries: 8, Keywords: 2, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	return db, ws
}

// setFaults arms a fault campaign on every page store and the WAL of db.
func setFaults(t testing.TB, db *dsks.DB, cfg fault.Config) {
	t.Helper()
	in, err := fault.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	db.SetInjector(in)
}

// clearFaults disarms fault injection on db.
func clearFaults(db *dsks.DB) { db.SetInjector(nil) }

// checkNoPins fails t, once the test and its deferred calls are done,
// when a read view is still pinned on the backend: a handler that never
// closed the view it served a request from.
func checkNoPins(t testing.TB, b interface{ PinnedViews() int }) {
	t.Helper()
	t.Cleanup(func() {
		if n := b.PinnedViews(); n != 0 {
			t.Errorf("%d read views still pinned when the test ended", n)
		}
	})
}

// get issues a GET against the handler and decodes the JSON body.
func get(t *testing.T, h http.Handler, url string, out any) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, url, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if out != nil && rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("decoding %s response: %v\n%s", url, err, rec.Body.String())
		}
	}
	return rec
}

// post issues a JSON POST against the handler.
func post(t *testing.T, h http.Handler, url string, body any) *httptest.ResponseRecorder {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, url, bytes.NewReader(raw))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// termsParam renders terms for a GET URL.
func termsParam(ts []dsks.TermID) string {
	parts := make([]string, len(ts))
	for i, t := range ts {
		parts[i] = fmt.Sprint(t)
	}
	return strings.Join(parts, ",")
}

func searchURL(q dsks.WorkloadQuery) string {
	return fmt.Sprintf("/v1/search?edge=%d&offset=%g&terms=%s&deltaMax=%g",
		q.Pos.Edge, q.Pos.Offset, termsParam(q.Terms), q.DeltaMax)
}

// familyURLs renders q as a GET of each of the five query families.
func familyURLs(q dsks.WorkloadQuery) map[string]string {
	at := fmt.Sprintf("edge=%d&offset=%g&terms=%s", q.Pos.Edge, q.Pos.Offset, termsParam(q.Terms))
	return map[string]string{
		"search":      fmt.Sprintf("/v1/search?%s&deltaMax=%g", at, q.DeltaMax),
		"diversified": fmt.Sprintf("/v1/diversified?%s&deltaMax=%g&k=3&lambda=0.8", at, q.DeltaMax),
		"knn":         "/v1/knn?" + at + "&k=3",
		"ranked":      fmt.Sprintf("/v1/ranked?%s&deltaMax=%g&k=3&alpha=0.5", at, q.DeltaMax),
		"collective":  fmt.Sprintf("/v1/collective?%s&deltaMax=%g", at, q.DeltaMax),
	}
}

func TestSearchEndpointMatchesLibrary(t *testing.T) {
	db, ws := testDB(t)
	h := New(db, Config{}).Handler()

	for _, q := range ws[:4] {
		want, err := db.Query(context.Background(), dsks.SKQuery{Pos: q.Pos, Terms: q.Terms, DeltaMax: q.DeltaMax})
		if err != nil {
			t.Fatal(err)
		}
		var resp queryResponse
		rec := get(t, h, searchURL(q), &resp)
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
		if len(resp.Candidates) != len(want.Candidates) {
			t.Fatalf("%d candidates over HTTP, %d from the library", len(resp.Candidates), len(want.Candidates))
		}
		for i, c := range resp.Candidates {
			if c.ID != want.Candidates[i].Ref.ID {
				t.Fatalf("candidate %d: id %d, want %d", i, c.ID, want.Candidates[i].Ref.ID)
			}
		}
	}
}

func TestQueryEndpointsServeEveryFamily(t *testing.T) {
	db, ws := testDB(t)
	h := New(db, Config{}).Handler()
	q := ws[0]

	urls := familyURLs(q)
	urls["distance"] = fmt.Sprintf("/v1/distance?edge=%d&offset=%g&bEdge=0&bOffset=0", q.Pos.Edge, q.Pos.Offset)
	for kind, url := range urls {
		t.Run(kind, func(t *testing.T) {
			var resp queryResponse
			rec := get(t, h, url, &resp)
			if rec.Code != http.StatusOK {
				t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
			}
			if resp.Kind != kind {
				t.Fatalf("kind %q, want %q", resp.Kind, kind)
			}
		})
	}
}

func TestCacheHitAndMutationInvalidation(t *testing.T) {
	db, ws := testDB(t)
	h := New(db, Config{}).Handler()
	q := ws[0]
	url := searchURL(q)

	if rec := get(t, h, url, nil); rec.Header().Get("X-Dsks-Cache") != "miss" {
		t.Fatalf("first request: cache %q, want miss", rec.Header().Get("X-Dsks-Cache"))
	}
	rec := get(t, h, url, nil)
	if rec.Header().Get("X-Dsks-Cache") != "hit" {
		t.Fatalf("second request: cache %q, want hit", rec.Header().Get("X-Dsks-Cache"))
	}
	first := rec.Body.String()

	// A mutation bumps the DB version: the same query must miss the cache
	// and recompute, observing the new object.
	ins := post(t, h, "/v1/insert", insertRequest{Edge: q.Pos.Edge, Offset: q.Pos.Offset, Terms: q.Terms})
	if ins.Code != http.StatusOK {
		t.Fatalf("insert status %d: %s", ins.Code, ins.Body.String())
	}
	rec = get(t, h, url, nil)
	if got := rec.Header().Get("X-Dsks-Cache"); got != "miss" {
		t.Fatalf("post-mutation request: cache %q, want miss", got)
	}
	var resp queryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	var before queryResponse
	if err := json.Unmarshal([]byte(first), &before); err != nil {
		t.Fatal(err)
	}
	if len(resp.Candidates) != len(before.Candidates)+1 {
		t.Fatalf("post-insert candidates %d, want %d", len(resp.Candidates), len(before.Candidates)+1)
	}

	// Remove the inserted object: invalidated again, back to the original set.
	var insResp struct {
		ID dsks.ObjectID `json:"id"`
	}
	if err := json.Unmarshal(ins.Body.Bytes(), &insResp); err != nil {
		t.Fatal(err)
	}
	if rec := post(t, h, "/v1/remove", removeRequest{ID: insResp.ID}); rec.Code != http.StatusOK {
		t.Fatalf("remove status %d: %s", rec.Code, rec.Body.String())
	}
	rec = get(t, h, url, &resp)
	if got := rec.Header().Get("X-Dsks-Cache"); got != "miss" {
		t.Fatalf("post-remove request: cache %q, want miss", got)
	}
	if len(resp.Candidates) != len(before.Candidates) {
		t.Fatalf("post-remove candidates %d, want %d", len(resp.Candidates), len(before.Candidates))
	}
}

func TestAdmissionShedsWith429(t *testing.T) {
	db, ws := testDB(t)
	srv := New(db, Config{MaxInflight: 1, QueueDepth: -1})
	h := srv.Handler()

	// Occupy the only execution slot so the next request finds the queue
	// (depth 0) full.
	if err := srv.lim.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer srv.lim.release()

	rec := get(t, h, searchURL(ws[0]), nil)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	snap := db.Snapshot()
	if snap.Counters["server_admission_rejected_total"] == 0 {
		t.Fatal("rejection not counted in the metrics registry")
	}
}

func TestQueuedRequestTimesOutWith504(t *testing.T) {
	db, ws := testDB(t)
	srv := New(db, Config{MaxInflight: 1, QueueDepth: 4})
	h := srv.Handler()

	if err := srv.lim.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer srv.lim.release()

	url := searchURL(ws[0]) + "&timeout=30ms"
	rec := get(t, h, url, nil)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", rec.Code, rec.Body.String())
	}
}

func TestDeadlineSurfacesAs504(t *testing.T) {
	db, ws := testDB(t)
	h := New(db, Config{}).Handler()

	url := searchURL(ws[0]) + "&timeout=1ns"
	rec := get(t, h, url, nil)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", rec.Code, rec.Body.String())
	}
	if db.Snapshot().Counters["server_deadline_exceeded_total"] == 0 {
		t.Fatal("deadline expiry not counted")
	}
}

func TestValidationErrorsAre400(t *testing.T) {
	db, _ := testDB(t)
	h := New(db, Config{}).Handler()

	for _, url := range []string{
		"/v1/search?edge=0&deltaMax=100",            // no terms
		"/v1/search?edge=0&terms=1,2",               // no deltaMax
		"/v1/search?edge=0&terms=x&deltaMax=100",    // malformed terms
		"/v1/diversified?edge=0&terms=1&deltaMax=5", // k missing
		"/v1/search?edge=0&terms=1&deltaMax=5&timeout=bogus",
	} {
		if rec := get(t, h, url, nil); rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400: %s", url, rec.Code, rec.Body.String())
		}
	}
	if rec := get(t, h, "/v1/insert", nil); rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/insert: status %d, want 405", rec.Code)
	}
}

func TestNoPathIs404(t *testing.T) {
	// Two disconnected road segments: distance across them has no path.
	g := dsks.NewGraph()
	a := g.AddNode(dsks.Point{X: 0, Y: 0})
	b := g.AddNode(dsks.Point{X: 100, Y: 0})
	c := g.AddNode(dsks.Point{X: 0, Y: 500})
	d := g.AddNode(dsks.Point{X: 100, Y: 500})
	if _, err := g.AddEdge(a, b, 100); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddEdge(c, d, 100); err != nil {
		t.Fatal(err)
	}
	g.Freeze()
	col := dsks.NewCollection()
	col.Add(dsks.Position{Edge: 0, Offset: 10}, []dsks.TermID{0})
	db, err := dsks.Open(g, col, 1, dsks.Options{Index: dsks.IndexSIF})
	if err != nil {
		t.Fatal(err)
	}
	h := New(db, Config{}).Handler()

	rec := get(t, h, "/v1/distance?edge=0&offset=0&bEdge=1&bOffset=0", nil)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("status %d, want 404: %s", rec.Code, rec.Body.String())
	}
}

// TestKNNHugeK: k is the client's and may exceed the database by any
// factor. A k of a hundred billion and the largest int both answer 200
// with exactly the candidates k = the live objects gives, on one node and
// behind the router; neither may size anything by k before the answer
// arrives.
func TestKNNHugeK(t *testing.T) {
	db, _ := testDB(t)
	router, _, set := routerFixture(t, false, Config{CacheSize: -1})
	for _, tc := range []struct {
		name string
		h    http.Handler
		live int
	}{
		{"single", New(db, Config{CacheSize: -1}).Handler(), db.LiveObjects()},
		{"router", router, set.LiveObjects()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			url := func(k string) string { return "/v1/knn?edge=0&offset=0&terms=0&k=" + k }
			var want queryResponse
			if rec := get(t, tc.h, url(strconv.Itoa(tc.live)), &want); rec.Code != http.StatusOK {
				t.Fatalf("k = live objects: status %d: %s", rec.Code, rec.Body.String())
			}
			if len(want.Candidates) == 0 {
				t.Fatal("k = live objects found nothing; the comparison would be vacuous")
			}
			for _, k := range []string{"100000000000", "9223372036854775807"} {
				var got queryResponse
				if rec := get(t, tc.h, url(k), &got); rec.Code != http.StatusOK {
					t.Fatalf("k=%s: status %d: %s", k, rec.Code, rec.Body.String())
				}
				if !reflect.DeepEqual(got.Candidates, want.Candidates) {
					t.Fatalf("k=%s: %d candidates, want the %d of k = live objects", k, len(got.Candidates), len(want.Candidates))
				}
			}
		})
	}
}

func TestObservabilityEndpoints(t *testing.T) {
	db, ws := testDB(t)
	h := New(db, Config{}).Handler()
	get(t, h, searchURL(ws[0]), nil)
	get(t, h, searchURL(ws[0]), nil) // cache hit

	var health struct {
		Status string `json:"status"`
	}
	if rec := get(t, h, "/healthz", &health); rec.Code != http.StatusOK || health.Status != "healthy" {
		t.Fatalf("healthz: %d %q", rec.Code, health.Status)
	}

	var varz varzPayload
	if rec := get(t, h, "/varz", &varz); rec.Code != http.StatusOK {
		t.Fatalf("varz status %d", rec.Code)
	}
	if varz.Metrics.Counters["server_requests_total"] == 0 {
		t.Fatal("varz: request counter missing")
	}
	if varz.PinnedViews != 0 {
		t.Fatalf("varz: %d views pinned with no request in flight", varz.PinnedViews)
	}
	if varz.Metrics.Counters["server_cache_hits_total"] == 0 {
		t.Fatal("varz: cache hit counter missing")
	}
	if varz.Metrics.Queries["search"].Count == 0 {
		t.Fatal("varz: search latency aggregates missing")
	}

	req := httptest.NewRequest(http.MethodGet, "/metricsz", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	body := rec.Body.String()
	for _, want := range []string{
		`dsks_queries_total{kind="search"}`,
		"dsks_query_latency_seconds_bucket",
		"server_cache_hits_total",
		"server_admission_rejected_total 0",
		"server_requests_total",
		// The pages the queries held outside the buffer budget.
		"# TYPE index_pages_held_max gauge",
		"# TYPE index_pages_held_total counter",
		"index_pages_held_queries_total",
		// Probes that left the B+-tree for the overflow heap: none here.
		"# TYPE index_overflow_list_reads_total counter",
		"index_overflow_list_reads_total 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metricsz missing %q", want)
		}
	}
}

func TestPanicIsolation(t *testing.T) {
	db, _ := testDB(t)
	srv := New(db, Config{})
	srv.mux.HandleFunc("/boom", func(http.ResponseWriter, *http.Request) {
		panic("kaboom")
	})
	h := srv.Handler()

	rec := get(t, h, "/boom", nil)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	if db.Snapshot().Counters["server_panics_total"] != 1 {
		t.Fatal("panic not counted")
	}
	// The process survived; a normal request still works.
	if rec := get(t, h, "/healthz", nil); rec.Code != http.StatusOK {
		t.Fatalf("healthz after panic: %d", rec.Code)
	}
}

func TestGracefulShutdownDrainsInflight(t *testing.T) {
	db, _ := testDB(t)
	srv := New(db, Config{Addr: "127.0.0.1:0", DefaultTimeout: 5 * time.Second})
	// The handler is held until Shutdown has begun, so the request is in
	// flight while the server drains.
	entered, release := make(chan struct{}), make(chan struct{})
	srv.mux.HandleFunc("/slow", func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-release
		writeJSON(w, http.StatusOK, map[string]string{"status": "done"})
	})
	errc, err := srv.Start()
	if err != nil {
		t.Fatal(err)
	}
	srv.http.RegisterOnShutdown(func() { close(release) })

	// A request in flight while Shutdown begins must complete with 200.
	done := make(chan error, 1)
	go func() {
		resp, err := http.Get("http://" + srv.Addr() + "/slow")
		if err != nil {
			done <- err
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			done <- fmt.Errorf("in-flight request: status %d", resp.StatusCode)
			return
		}
		done <- nil
	}()
	<-entered

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err != nil {
		t.Fatalf("serve error: %v", err)
	}
}

// TestStrictMixedLoad: workers insert, remove what they inserted and GET
// every query family at once, on one node and behind the router. Every
// response is a 200, and each worker's acknowledged LSNs strictly
// increase.
func TestStrictMixedLoad(t *testing.T) {
	db, ws := testDB(t)
	router, _, rws := routerWith(t, shard.Options{DB: dsks.Options{Index: dsks.IndexSIF}}, Config{})
	for _, tc := range []struct {
		name string
		h    http.Handler
		ws   []dsks.WorkloadQuery
	}{
		{"single", New(db, Config{}).Handler(), ws},
		{"router", router, rws},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const workers, rounds = 4, 5
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					var last uint64
					// acked checks a mutation's 200 and that its LSN is
					// past this worker's last.
					acked := func(what string, rec *httptest.ResponseRecorder) (dsks.ObjectID, bool) {
						var ack struct {
							ID  dsks.ObjectID `json:"id"`
							LSN uint64        `json:"lsn"`
						}
						if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &ack) != nil {
							t.Errorf("worker %d %s: status %d: %s", w, what, rec.Code, rec.Body.String())
							return 0, false
						}
						if ack.LSN <= last {
							t.Errorf("worker %d %s: acked lsn %d after %d", w, what, ack.LSN, last)
							return 0, false
						}
						last = ack.LSN
						return ack.ID, true
					}
					for r := 0; r < rounds; r++ {
						q := tc.ws[(w+r*workers)%len(tc.ws)]
						id, ok := acked("insert", post(t, tc.h, "/v1/insert",
							insertRequest{Edge: q.Pos.Edge, Offset: q.Pos.Offset, Terms: q.Terms}))
						if !ok {
							return
						}
						for kind, url := range familyURLs(q) {
							if rec := get(t, tc.h, url, nil); rec.Code != http.StatusOK {
								t.Errorf("worker %d %s: status %d: %s", w, kind, rec.Code, rec.Body.String())
								return
							}
						}
						if _, ok := acked("remove", post(t, tc.h, "/v1/remove", removeRequest{ID: id})); !ok {
							return
						}
					}
				}(w)
			}
			wg.Wait()
		})
	}
}

// TestOversizedIDsAre400: an edge or term ID past 32 bits is a client
// error, never the ID it wraps around to (4294967299 would read as edge
// 3, 4294967297 as term 1) — in a GET, a POSTed query and an insert, on
// one node and behind the router — and nothing is inserted.
func TestOversizedIDsAre400(t *testing.T) {
	db, _ := testDB(t)
	router, _, set := routerFixture(t, false, Config{})
	for _, tc := range []struct {
		name string
		h    http.Handler
		live func() int
	}{
		{"single", New(db, Config{}).Handler(), db.LiveObjects},
		{"router", router, set.LiveObjects},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := tc.live()
			for _, url := range []string{
				"/v1/search?edge=4294967299&offset=0.4&terms=1&deltaMax=20000",
				"/v1/search?edge=3&offset=0.4&terms=4294967297&deltaMax=20000",
				"/v1/distance?edge=3&offset=0&bEdge=4294967296&bOffset=0",
			} {
				if rec := get(t, tc.h, url, nil); rec.Code != http.StatusBadRequest {
					t.Errorf("GET %s: status %d, want 400: %s", url, rec.Code, rec.Body.String())
				}
			}
			for _, c := range []struct {
				url  string
				body map[string]any
			}{
				{"/v1/search", map[string]any{"edge": int64(4294967299), "offset": 0.4, "terms": []int{1}, "deltaMax": 20000}},
				{"/v1/insert", map[string]any{"edge": int64(4294967299), "offset": 0.5, "terms": []int{1}}},
			} {
				if rec := post(t, tc.h, c.url, c.body); rec.Code != http.StatusBadRequest {
					t.Errorf("POST %s %v: status %d, want 400: %s", c.url, c.body, rec.Code, rec.Body.String())
				}
			}
			if after := tc.live(); after != before {
				t.Fatalf("live objects %d → %d: an oversized edge was inserted", before, after)
			}
		})
	}
}
