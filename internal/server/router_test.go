package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"dsks"
	"dsks/internal/fault"
	"dsks/internal/shard"
)

// decode unmarshals a recorded response body regardless of its status
// (get only decodes 200s; partial results come back as 206).
func decode(t *testing.T, rec *httptest.ResponseRecorder, out any) {
	t.Helper()
	if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
		t.Fatalf("decoding response: %v\n%s", err, rec.Body.String())
	}
}

// routerFixture boots a NewRouter server over a 4-shard set and returns
// the handler plus a wide search URL whose δmax ball spans every shard.
func routerFixture(t *testing.T, partial bool, cfg Config) (http.Handler, string, *shard.Set) {
	t.Helper()
	h, set, ws := routerWith(t, shard.Options{DB: dsks.Options{Index: dsks.IndexSIF}, Partial: partial}, cfg)
	url := fmt.Sprintf("/v1/search?edge=%d&offset=%g&terms=%d&deltaMax=20000",
		ws[0].Pos.Edge, ws[0].Pos.Offset, ws[0].Terms[0])
	return h, url, set
}

// routerWith boots a NewRouter server over a 4-shard set opened with opts
// and returns it with single-keyword workload queries over its dataset.
func routerWith(t *testing.T, opts shard.Options, cfg Config) (http.Handler, *shard.Set, []dsks.WorkloadQuery) {
	t.Helper()
	ds, err := dsks.GeneratePreset(dsks.PresetSYN, 1000, 42)
	if err != nil {
		t.Fatal(err)
	}
	ws, err := dsks.GenerateWorkload(ds.Objects, ds.VocabSize, dsks.WorkloadConfig{
		NumQueries: 8, Keywords: 1, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	set, err := shard.Open(ds.Graph, ds.Objects, ds.VocabSize, 4, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = set.Close() })
	checkNoPins(t, set)
	return NewRouter(set, cfg).Handler(), set, ws
}

func TestRouterServesShardedQueries(t *testing.T) {
	h, url, set := routerFixture(t, false, Config{})
	var res struct {
		Candidates []struct {
			ID int64 `json:"id"`
		} `json:"candidates"`
		LSNs    []uint64 `json:"lsns"`
		Queried []int    `json:"queriedShards"`
		Partial bool     `json:"partial"`
	}
	rec := get(t, h, url, &res)
	if rec.Code != http.StatusOK {
		t.Fatalf("sharded search: status %d: %s", rec.Code, rec.Body)
	}
	if len(res.Candidates) == 0 {
		t.Fatal("sharded search returned no candidates")
	}
	if len(res.LSNs) != set.Shards() {
		t.Fatalf("envelope lsns %v, want %d entries", res.LSNs, set.Shards())
	}
	if len(res.Queried) == 0 || res.Partial {
		t.Fatalf("envelope meta: queried %v partial %v", res.Queried, res.Partial)
	}

	// The second identical request is a cache hit at the same LSN vector.
	rec = get(t, h, url, &res)
	if rec.Code != http.StatusOK || rec.Header().Get("X-Dsks-Cache") != "hit" {
		t.Fatalf("repeat: status %d cache %q", rec.Code, rec.Header().Get("X-Dsks-Cache"))
	}

	// A mutation bumps the router clock and invalidates the cache.
	var ack struct {
		ID  *int64 `json:"id"`
		LSN uint64 `json:"lsn"`
	}
	pos, terms := insertableObject(t, set)
	rec = post(t, h, "/v1/insert", map[string]any{"edge": pos.Edge, "offset": pos.Offset, "terms": terms})
	if rec.Code != http.StatusOK {
		t.Fatalf("insert: status %d: %s", rec.Code, rec.Body)
	}
	decode(t, rec, &ack)
	if ack.ID == nil || ack.LSN == 0 {
		t.Fatalf("insert ack = %+v", ack)
	}
	rec = get(t, h, url, &res)
	if rec.Code != http.StatusOK || rec.Header().Get("X-Dsks-Cache") != "miss" {
		t.Fatalf("post-insert: status %d cache %q", rec.Code, rec.Header().Get("X-Dsks-Cache"))
	}

	// Remove acks a later clock value.
	var rack struct {
		LSN uint64 `json:"lsn"`
	}
	rec = post(t, h, "/v1/remove", map[string]any{"id": *ack.ID})
	if rec.Code != http.StatusOK {
		t.Fatalf("remove: status %d: %s", rec.Code, rec.Body)
	}
	decode(t, rec, &rack)
	if rack.LSN <= ack.LSN {
		t.Fatalf("remove lsn %d not after insert lsn %d", rack.LSN, ack.LSN)
	}
}

// insertableObject picks a position and terms that every shard database
// accepts (a real edge with in-vocabulary terms).
func insertableObject(t *testing.T, set *shard.Set) (dsks.Position, []dsks.TermID) {
	t.Helper()
	return dsks.Position{Edge: 0, Offset: 0.5}, []dsks.TermID{0}
}

func TestRouterShardVarz(t *testing.T) {
	h, url, set := routerFixture(t, false, Config{})
	if rec := get(t, h, url, nil); rec.Code != http.StatusOK {
		t.Fatalf("warmup: status %d", rec.Code)
	}
	var varz struct {
		Shards []struct {
			LSN         uint64 `json:"lsn"`
			LiveObjects int    `json:"liveObjects"`
			Requests    int64  `json:"requests"`
		} `json:"shards"`
		Metrics struct {
			Counters map[string]int64 `json:"Counters"`
		} `json:"metrics"`
	}
	if rec := get(t, h, "/varz", &varz); rec.Code != http.StatusOK {
		t.Fatalf("varz: status %d", rec.Code)
	}
	if len(varz.Shards) != set.Shards() {
		t.Fatalf("varz shards = %d rows, want %d", len(varz.Shards), set.Shards())
	}
	live, reqs := 0, int64(0)
	for _, sh := range varz.Shards {
		live += sh.LiveObjects
		reqs += sh.Requests
	}
	if live != set.LiveObjects() {
		t.Fatalf("varz live objects sum %d, want %d", live, set.LiveObjects())
	}
	if reqs == 0 {
		t.Fatal("no per-shard requests counted after a fan-out")
	}
	if varz.Metrics.Counters[shard.CounterFanoutLegs] == 0 {
		t.Fatal("router fan-out counter missing from varz")
	}

	// pinnedViews sums the shards: an open MultiView pins one view on
	// each, and closing it gives them all back.
	mv, err := set.View(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var pins struct {
		PinnedViews int `json:"pinnedViews"`
	}
	get(t, h, "/varz", &pins)
	if pins.PinnedViews != set.Shards() {
		t.Fatalf("varz pinnedViews = %d with one MultiView open, want %d", pins.PinnedViews, set.Shards())
	}
	mv.Close()
	get(t, h, "/varz", &pins)
	if pins.PinnedViews != 0 {
		t.Fatalf("varz pinnedViews = %d after the MultiView closed, want 0", pins.PinnedViews)
	}
}

// TestRouterPartialResult206: with the partial policy, one downed shard
// turns the answer into a coherent 206 — partial flag, the failed leg's
// detail, never cached — and recovery restores cacheable 200s.
func TestRouterPartialResult206(t *testing.T) {
	h, url, set := routerFixture(t, true, Config{CacheSize: -1})

	if rec := get(t, h, url, nil); rec.Code != http.StatusOK {
		t.Fatalf("healthy: status %d", rec.Code)
	}

	// Down shard 1 only.
	downShard(t, set, 1)

	var res struct {
		Candidates  []struct{} `json:"candidates"`
		Partial     bool       `json:"partial"`
		ShardErrors []struct {
			Shard int    `json:"shard"`
			Err   string `json:"error"`
		} `json:"shardErrors"`
	}
	rec := get(t, h, url, nil)
	if rec.Code != http.StatusPartialContent {
		t.Fatalf("degraded: status %d, want 206: %s", rec.Code, rec.Body)
	}
	decode(t, rec, &res)
	assertMarshalBody(t, rec)
	if !res.Partial || len(res.ShardErrors) != 1 || res.ShardErrors[0].Shard != 1 {
		t.Fatalf("degraded envelope: partial %v errors %+v", res.Partial, res.ShardErrors)
	}
	// The 206 body was not cached: the same request misses again.
	rec = get(t, h, url, nil)
	if rec.Code != http.StatusPartialContent || rec.Header().Get("X-Dsks-Cache") != "miss" {
		t.Fatalf("repeat degraded: status %d cache %q", rec.Code, rec.Header().Get("X-Dsks-Cache"))
	}

	// Heal and verify full 200s come back.
	healShards(t, set)
	rec = get(t, h, url, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("recovered: status %d", rec.Code)
	}
	res.Partial, res.ShardErrors = false, nil
	decode(t, rec, &res)
	if res.Partial {
		t.Fatal("recovered answer still flagged partial")
	}
}

// TestRouterFirstErrorWins500: the default policy maps a downed shard to
// one coherent 500, driving the breaker like any storage failure.
func TestRouterFirstErrorWins500(t *testing.T) {
	h, url, set := routerFixture(t, false, Config{CacheSize: -1})
	if rec := get(t, h, url, nil); rec.Code != http.StatusOK {
		t.Fatalf("healthy: status %d", rec.Code)
	}
	downShard(t, set, 2)
	if rec := get(t, h, url, nil); rec.Code != http.StatusInternalServerError {
		t.Fatalf("degraded: status %d, want 500: %s", rec.Code, rec.Body)
	}
	healShards(t, set)
	if rec := get(t, h, url, nil); rec.Code != http.StatusOK {
		t.Fatalf("recovered: status %d", rec.Code)
	}
}

// TestRouterInsertsAroundAPoisonedShardWAL: with shard 1's log failing
// every sync, an insert shard 1 owns answers 500 with a JSON error, and
// inserts on the other shards still ack with an id and an lsn.
func TestRouterInsertsAroundAPoisonedShardWAL(t *testing.T) {
	h, set, _ := routerWith(t, shard.Options{DB: dsks.Options{Index: dsks.IndexSIF, WALDir: t.TempDir()}}, Config{})
	setFaults(t, set.DB(1), fault.Config{Op: fault.OpSync, EveryN: 1})
	tried := make([]int, set.Shards())
	for e, owner := range set.Partition().Owner {
		if tried[owner] == 2 {
			continue
		}
		tried[owner]++
		rec := post(t, h, "/v1/insert", map[string]any{"edge": e, "offset": 0.5, "terms": []int{0}})
		if owner == 1 {
			var fail struct {
				Error string `json:"error"`
			}
			if rec.Code != http.StatusInternalServerError {
				t.Fatalf("insert on edge %d of the poisoned shard: status %d: %s", e, rec.Code, rec.Body)
			}
			if decode(t, rec, &fail); fail.Error == "" {
				t.Fatalf("500 without an error message: %s", rec.Body)
			}
			continue
		}
		var ack struct {
			ID  *int64 `json:"id"`
			LSN uint64 `json:"lsn"`
		}
		if rec.Code != http.StatusOK {
			t.Fatalf("insert on edge %d of healthy shard %d: status %d: %s", e, owner, rec.Code, rec.Body)
		}
		if decode(t, rec, &ack); ack.ID == nil || ack.LSN == 0 {
			t.Fatalf("insert on healthy shard %d acked %s", owner, rec.Body)
		}
	}
}

// TestRouterReplicaFailover: with shard 0's primary storage dead, every
// family answers 200 from its replica — never a 206 or a 5xx — /varz
// counts the failovers and /healthz shows shard 0 on its replica; once the
// primary heals, the next probe reclaims it. A cooldown of a nanosecond
// makes every query after the trip a probe, so no clock is waited on.
func TestRouterReplicaFailover(t *testing.T) {
	h, set, ws := routerWith(t, shard.Options{
		DB:      dsks.Options{Index: dsks.IndexSIF, WALDir: t.TempDir()},
		Partial: true, Replicas: 1, DownAfter: 2, DownCooldown: time.Nanosecond, Seed: 4,
	}, Config{CacheSize: -1})
	q := ws[0]
	q.DeltaMax = 20000
	downShard(t, set, 0)
	for i := 0; i < 3; i++ {
		for kind, url := range familyURLs(q) {
			if rec := get(t, h, url, nil); rec.Code != http.StatusOK {
				t.Fatalf("%s with shard 0's primary down: status %d: %s", kind, rec.Code, rec.Body)
			}
		}
	}
	var varz struct {
		Metrics struct {
			Counters map[string]int64 `json:"Counters"`
		} `json:"metrics"`
	}
	if get(t, h, "/varz", &varz); varz.Metrics.Counters[shard.CounterFailovers] == 0 {
		t.Fatal("failovers_total stayed zero with shard 0's primary down")
	}
	var health struct {
		Shards []string `json:"shards"`
	}
	get(t, h, "/healthz", &health)
	if want := []string{"replica", "primary", "primary", "primary"}; fmt.Sprint(health.Shards) != fmt.Sprint(want) {
		t.Fatalf("healthz shards %v, want %v", health.Shards, want)
	}

	healShards(t, set)
	if rec := get(t, h, familyURLs(q)["search"], nil); rec.Code != http.StatusOK {
		t.Fatalf("search after healing: status %d: %s", rec.Code, rec.Body)
	}
	if get(t, h, "/healthz", &health); health.Shards[0] != "primary" {
		t.Fatalf("healthz shards %v after the healed primary answered, want shard 0 primary", health.Shards)
	}
}

// downShard makes every page read of shard si fail from now on; the pools
// are cooled first, so the next query reaches the faulting storage.
func downShard(t *testing.T, set *shard.Set, si int) {
	t.Helper()
	if err := set.ResetIO(); err != nil {
		t.Fatal(err)
	}
	setFaults(t, set.DB(si), fault.Config{Op: fault.OpRead, EveryN: 1})
}

// healShards clears every shard's faults and cools the pools.
func healShards(t *testing.T, set *shard.Set) {
	t.Helper()
	for i := 0; i < set.Shards(); i++ {
		clearFaults(set.DB(i))
	}
	if err := set.ResetIO(); err != nil {
		t.Fatal(err)
	}
}
