package server

import (
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"dsks"
	"dsks/internal/fault"
)

// testBreaker returns a breaker with a controllable clock.
func testBreaker(degrade, brk int, cooldown time.Duration) (*breaker, *time.Time) {
	b := newBreaker(degrade, brk, cooldown,
		new(atomic.Int64), new(atomic.Int64), new(atomic.Int64))
	clock := time.Unix(1000, 0)
	b.now = func() time.Time { return clock }
	return b, &clock
}

func TestBreakerStateMachine(t *testing.T) {
	b, clock := testBreaker(2, 4, time.Second)

	if st := b.currentState(); st != stateHealthy {
		t.Fatalf("initial state %v", st)
	}
	// One error: still healthy. Two: degraded. Four: open.
	b.recordStorageError(false)
	if st := b.currentState(); st != stateHealthy {
		t.Fatalf("after 1 error state %v, want healthy", st)
	}
	b.recordStorageError(false)
	if st := b.currentState(); st != stateDegraded {
		t.Fatalf("after 2 errors state %v, want degraded", st)
	}
	// A success heals degraded back to healthy and resets the streak.
	b.recordSuccess(false)
	if st := b.currentState(); st != stateHealthy {
		t.Fatalf("after success state %v, want healthy", st)
	}
	for i := 0; i < 4; i++ {
		b.recordStorageError(false)
	}
	if st := b.currentState(); st != stateOpen {
		t.Fatalf("after 4 errors state %v, want open", st)
	}
	if b.opened.Load() != 1 {
		t.Errorf("opened counter = %d, want 1", b.opened.Load())
	}

	// While open and inside the cooldown, everything is shed.
	if _, admitted := b.allow(); admitted {
		t.Fatal("open breaker admitted a request inside cooldown")
	}
	if b.shed.Load() == 0 {
		t.Error("shed counter not incremented")
	}

	// After the cooldown exactly one probe goes through; concurrent
	// requests keep being shed while it is in flight.
	*clock = clock.Add(time.Second)
	probe, admitted := b.allow()
	if !admitted || !probe {
		t.Fatalf("post-cooldown allow = (probe %v, admitted %v), want probe", probe, admitted)
	}
	if _, admitted := b.allow(); admitted {
		t.Fatal("second request admitted while probe in flight")
	}

	// Failed probe: breaker re-opens for a fresh cooldown.
	b.recordStorageError(true)
	if st := b.currentState(); st != stateOpen {
		t.Fatalf("after failed probe state %v, want open", st)
	}
	if _, admitted := b.allow(); admitted {
		t.Fatal("request admitted right after failed probe")
	}

	// Next probe succeeds: fully closed.
	*clock = clock.Add(time.Second)
	probe, admitted = b.allow()
	if !admitted || !probe {
		t.Fatal("second probe not admitted")
	}
	b.recordSuccess(true)
	if st := b.currentState(); st != stateHealthy {
		t.Fatalf("after successful probe state %v, want healthy", st)
	}
	if _, admitted := b.allow(); !admitted {
		t.Fatal("healthy breaker shed a request")
	}
}

func TestBreakerNeutralProbeReleasesSlot(t *testing.T) {
	b, clock := testBreaker(1, 1, time.Second)
	b.recordStorageError(false)
	if st := b.currentState(); st != stateOpen {
		t.Fatalf("state %v, want open", st)
	}
	*clock = clock.Add(time.Second)
	probe, admitted := b.allow()
	if !admitted || !probe {
		t.Fatal("probe not admitted")
	}
	// The probe came back neutral (e.g. the client sent a bad request):
	// the breaker stays open but the probe slot frees immediately.
	b.recordNeutral(probe)
	if st := b.currentState(); st != stateOpen {
		t.Fatalf("after neutral probe state %v, want open", st)
	}
	if probe2, admitted := b.allow(); !admitted || !probe2 {
		t.Fatal("probe slot not released after neutral outcome")
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
	srv.health.now = func() time.Time { return clock }
	h := srv.Handler()

	// Baseline: queries work, health is green.
	if rec := get(t, h, searchURL(ws[0]), nil); rec.Code != http.StatusOK {
		t.Fatalf("baseline query status %d: %s", rec.Code, rec.Body.String())
	}
	if err := db.SetFaults(fault.Config{Op: fault.OpRead, EveryN: 1}); err != nil {
		t.Fatal(err)
	}
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
	db.ClearFaults()
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
	srv.health.now = func() time.Time { return clock } // the cooldown never ends
	srv.health.recordStorageError(false)
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
