package server

import (
	"net/http"
	"testing"
	"time"

	"dsks"
	"dsks/internal/breaker"
	"dsks/internal/fault"
)

// TestBreakerStateMachine drives the server's breaker as New wires it
// from Config, with its /varz counters: DegradeAfter storage errors
// degrade, BreakAfter open, the cooldown admits one probe, a failed probe
// re-opens and a successful one closes.
func TestBreakerStateMachine(t *testing.T) {
	db, _ := testDB(t)
	srv := New(db, Config{DegradeAfter: 2, BreakAfter: 4, BreakerCooldown: time.Second})
	b := srv.health
	clock := time.Unix(1000, 0)
	b.Now = func() time.Time { return clock }
	reg := db.Metrics()
	end := func(o breaker.Outcome) {
		tk, ok := b.Allow()
		if !ok {
			t.Fatal("request refused admission")
		}
		tk.End(o)
	}

	if st := b.State(); st != breaker.Healthy {
		t.Fatalf("initial state %v", st)
	}
	// One error: still healthy. Two: degraded. Four: open.
	end(breaker.Failure)
	if st := b.State(); st != breaker.Healthy {
		t.Fatalf("after 1 error state %v, want healthy", st)
	}
	end(breaker.Failure)
	if st := b.State(); st != breaker.Degraded {
		t.Fatalf("after 2 errors state %v, want degraded", st)
	}
	// A success heals degraded back to healthy and resets the streak.
	end(breaker.Success)
	if st := b.State(); st != breaker.Healthy {
		t.Fatalf("after success state %v, want healthy", st)
	}
	for i := 0; i < 4; i++ {
		end(breaker.Failure)
	}
	if st := b.State(); st != breaker.Open {
		t.Fatalf("after 4 errors state %v, want open", st)
	}
	if n := reg.Counter("server_breaker_opened_total").Load(); n != 1 {
		t.Errorf("opened counter = %d, want 1", n)
	}
	if g := reg.Counter("server_health_state").Load(); breaker.State(g) != breaker.Open {
		t.Errorf("health gauge = %d, want open", g)
	}

	// While open and inside the cooldown, everything is shed.
	if _, admitted := b.Allow(); admitted {
		t.Fatal("open breaker admitted a request inside cooldown")
	}
	if reg.Counter("server_breaker_shed_total").Load() == 0 {
		t.Error("shed counter not incremented")
	}

	// After the cooldown exactly one probe goes through; concurrent
	// requests keep being shed while it is in flight.
	clock = clock.Add(time.Second)
	probe, admitted := b.Allow()
	if !admitted || !probe.Probe() {
		t.Fatalf("post-cooldown allow = (probe %v, admitted %v), want probe", probe.Probe(), admitted)
	}
	if _, admitted := b.Allow(); admitted {
		t.Fatal("second request admitted while probe in flight")
	}

	// Failed probe: breaker re-opens for a fresh cooldown.
	probe.End(breaker.Failure)
	if st := b.State(); st != breaker.Open {
		t.Fatalf("after failed probe state %v, want open", st)
	}
	if _, admitted := b.Allow(); admitted {
		t.Fatal("request admitted right after failed probe")
	}

	// Next probe succeeds: fully closed.
	clock = clock.Add(time.Second)
	probe, admitted = b.Allow()
	if !admitted || !probe.Probe() {
		t.Fatal("second probe not admitted")
	}
	probe.End(breaker.Success)
	if st := b.State(); st != breaker.Healthy {
		t.Fatalf("after successful probe state %v, want healthy", st)
	}
	if _, admitted := b.Allow(); !admitted {
		t.Fatal("healthy breaker shed a request")
	}
}

// TestDegradedModeEndToEnd drives the whole loop over HTTP on a
// checksummed database: arm permanent read faults on cooled pools, watch
// queries 500 and the breaker open (503 + Retry-After, /healthz 503), heal
// the medium, and watch the half-open probe restore 200s once the
// breaker's clock passes the cooldown. A 200 inside the campaign must have
// read nothing from storage.
func TestDegradedModeEndToEnd(t *testing.T) {
	db, ws := openTestDB(t, dsks.Options{Index: dsks.IndexSIF, Checksums: true})
	srv := New(db, Config{
		DegradeAfter:    2,
		BreakAfter:      3,
		BreakerCooldown: time.Second,
		CacheSize:       -1, // no result cache: every request must hit storage
	})
	clock := time.Unix(1000, 0)
	srv.health.Now = func() time.Time { return clock }
	h := srv.Handler()

	// Baseline: queries work, health is green.
	if rec := get(t, h, searchURL(ws[0]), nil); rec.Code != http.StatusOK {
		t.Fatalf("baseline query status %d: %s", rec.Code, rec.Body.String())
	}
	setFaults(t, db, fault.Config{Op: fault.OpRead, EveryN: 1})
	// Cool the buffer pools so the campaign bites: a warm pool never
	// reaches the faulting page stores.
	if err := db.ResetIO(); err != nil {
		t.Fatal(err)
	}

	// Storage errors accumulate; within BreakAfter queries the breaker
	// opens and the server sheds with 503 + Retry-After.
	var saw500, saw503 bool
	for i := 0; i < 10; i++ {
		rec := get(t, h, searchURL(ws[i%len(ws)]), nil)
		switch rec.Code {
		case http.StatusInternalServerError:
			saw500 = true
		case http.StatusServiceUnavailable:
			saw503 = true
			if rec.Header().Get("Retry-After") == "" {
				t.Errorf("query %d: 503 without Retry-After", i)
			}
		case http.StatusOK:
			var res queryResponse
			decode(t, rec, &res)
			if res.DiskReads != 0 {
				t.Fatalf("query %d: a 200 that read %d pages under a permanent read-fault campaign", i, res.DiskReads)
			}
		default:
			t.Fatalf("query %d status %d: %s", i, rec.Code, rec.Body.String())
		}
	}
	if !saw500 || !saw503 {
		t.Fatalf("saw500=%v saw503=%v, want both", saw500, saw503)
	}
	var health struct {
		Status string `json:"status"`
	}
	rec := get(t, h, "/healthz", &health)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("healthz while open: %d %s", rec.Code, rec.Body.String())
	}

	// Heal the medium. Inside the cooldown the breaker still sheds; past
	// it, the next query is the probe, it succeeds and service recovers.
	clearFaults(db)
	if rec := get(t, h, searchURL(ws[0]), nil); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("healed, inside the cooldown: status %d, want 503", rec.Code)
	}
	clock = clock.Add(time.Second)
	if rec := get(t, h, searchURL(ws[0]), nil); rec.Code != http.StatusOK {
		t.Fatalf("probe past the cooldown: status %d: %s", rec.Code, rec.Body.String())
	}
	if rec := get(t, h, "/healthz", &health); rec.Code != http.StatusOK || health.Status != "healthy" {
		t.Fatalf("healthz after recovery: %d %q", rec.Code, health.Status)
	}

	// The whole episode is visible in the counters.
	snap := db.Snapshot()
	if snap.Counters["server_breaker_opened_total"] == 0 {
		t.Error("breaker_opened counter stayed zero")
	}
	if snap.Counters["server_breaker_shed_total"] == 0 {
		t.Error("breaker_shed counter stayed zero")
	}
}

// TestRetryAfterWhileBreakerOpen: a cooldown under half a second still
// hints a one-second wait, on a shed query and on /healthz alike; a hint of
// 0 would invite clients to retry at once into the open circuit.
func TestRetryAfterWhileBreakerOpen(t *testing.T) {
	db, ws := testDB(t)
	srv := New(db, Config{DegradeAfter: 1, BreakAfter: 1, BreakerCooldown: 200 * time.Millisecond})
	clock := time.Unix(1000, 0)
	srv.health.Now = func() time.Time { return clock } // the cooldown never ends
	tk, _ := srv.health.Allow()
	tk.End(breaker.Failure)
	h := srv.Handler()
	for _, url := range []string{searchURL(ws[0]), "/healthz"} {
		rec := get(t, h, url, nil)
		if rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("%s with the breaker open: %d %s", url, rec.Code, rec.Body.String())
		}
		if got := rec.Header().Get("Retry-After"); got != "1" {
			t.Errorf("%s: Retry-After %q with a 200ms cooldown, want \"1\"", url, got)
		}
	}
}

// TestBreakerProbePanicReleasesSlot: a half-open probe whose query panics
// (here in a DB trace hook) ends its ticket neutral on the way out, so the
// next query past the cooldown is admitted as the probe and answers 200.
func TestBreakerProbePanicReleasesSlot(t *testing.T) {
	db, ws := testDB(t)
	srv := New(db, Config{DegradeAfter: 1, BreakAfter: 1, BreakerCooldown: time.Second, CacheSize: -1})
	clock := time.Unix(1000, 0)
	srv.health.Now = func() time.Time { return clock }
	tk, _ := srv.health.Allow()
	tk.End(breaker.Failure)
	clock = clock.Add(time.Second)
	h := srv.Handler()

	db.SetTraceHook(func(dsks.QueryKind, dsks.Trace) { panic("trace hook") })
	if rec := get(t, h, searchURL(ws[0]), nil); rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicking probe: status %d, want 500", rec.Code)
	}
	db.SetTraceHook(nil)
	if rec := get(t, h, searchURL(ws[0]), nil); rec.Code != http.StatusOK {
		t.Fatalf("query after the panicking probe: status %d: %s", rec.Code, rec.Body.String())
	}
	if st := srv.health.State(); st != breaker.Healthy {
		t.Fatalf("breaker %v after a successful probe, want healthy", st)
	}
}
