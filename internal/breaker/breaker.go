// Package breaker is the circuit breaker the serving layers share: the
// server's degraded mode and the shard router's health of each replicated
// primary. Consecutive failures move it through
//
//	healthy ──(degradeAfter consecutive failures)──► degraded
//	degraded ──(breakAfter consecutive failures)──► open
//	open ──(cooldown elapses)──► half-open: ONE probe runs
//	probe succeeds ──► healthy        probe fails ──► open again
//
// While it is open, admission is refused except for that one probe per
// cooldown window. Admitted work holds a Ticket and ends it exactly once,
// with one of three outcomes:
//
//   - Success: the guarded resource served. It closes a degraded breaker;
//     an open one closes only through its probe.
//   - Failure: the resource failed. It counts toward degrading and
//     opening; a failed probe re-opens the breaker for a fresh cooldown.
//   - Neutral: the work says nothing about the resource — a client-class
//     error, a race another path won, a panic. It neither trips nor heals;
//     a neutral probe frees the probe slot, so the next request probes.
//
// What counts as a failure is the caller's classification.
package breaker

import (
	"sync"
	"sync/atomic"
	"time"
)

// State is the breaker's degradation level.
type State int32

const (
	Healthy State = iota
	Degraded
	Open
)

// String renders the state for observability endpoints.
func (st State) String() string {
	switch st {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	case Open:
		return "open"
	default:
		return "unknown"
	}
}

// Outcome is how a ticket's work ended. The zero value is Neutral.
type Outcome uint8

const (
	Neutral Outcome = iota
	Success
	Failure
)

// Counters are the optional gauges a breaker keeps current; any of them
// may be nil.
type Counters struct {
	Opened *atomic.Int64 // times the breaker opened
	Shed   *atomic.Int64 // admissions refused
	State  *atomic.Int64 // the current State, as an integer gauge
}

// Breaker is the state machine. All methods are safe for concurrent use;
// the mutex guards transitions only — the healthy path is one lock and
// unlock per admission and, on success, one more to reset the count.
type Breaker struct {
	mu          sync.Mutex
	state       State
	consecutive int  // consecutive failures
	probing     bool // the half-open probe's ticket is outstanding
	openedAt    time.Time

	degradeAfter int
	breakAfter   int
	cooldown     time.Duration
	counters     Counters

	// Now is the cooldown clock: time.Now unless a test stubs it before
	// the breaker is first used.
	Now func() time.Time
}

// New returns a healthy breaker. A degradeAfter below one means 3, a
// breakAfter below degradeAfter means degradeAfter, and a cooldown of zero
// or less means one second.
func New(degradeAfter, breakAfter int, cooldown time.Duration, c Counters) *Breaker {
	if degradeAfter <= 0 {
		degradeAfter = 3
	}
	if breakAfter < degradeAfter {
		breakAfter = degradeAfter
	}
	if cooldown <= 0 {
		cooldown = time.Second
	}
	return &Breaker{degradeAfter: degradeAfter, breakAfter: breakAfter,
		cooldown: cooldown, counters: c, Now: time.Now}
}

// Cooldown is how long the breaker stays open before its probe.
func (b *Breaker) Cooldown() time.Duration { return b.cooldown }

// State reports the current state.
func (b *Breaker) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Failures reports the current run of consecutive failures.
func (b *Breaker) Failures() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.consecutive
}

// Ticket is one admitted piece of work. It is a value — admission
// allocates nothing — and the holder ends it exactly once with End.
type Ticket struct {
	b     *Breaker
	probe bool
}

// Probe reports whether the ticket is the half-open probe, whose outcome
// alone decides the open breaker's next transition.
func (t Ticket) Probe() bool { return t.probe }

// Allow admits one piece of work. It refuses (false) only while the
// breaker is open, outside the one probe a cooldown window admits.
func (b *Breaker) Allow() (Ticket, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state != Open {
		return Ticket{b: b}, true
	}
	if !b.probing && b.Now().Sub(b.openedAt) >= b.cooldown {
		b.probing = true
		return Ticket{b: b, probe: true}, true
	}
	if b.counters.Shed != nil {
		b.counters.Shed.Add(1)
	}
	return Ticket{}, false
}

// End records how the ticket's work ended and, for the probe, frees the
// probe slot.
func (t Ticket) End(o Outcome) {
	if o == Neutral && !t.probe {
		return
	}
	b := t.b
	b.mu.Lock()
	defer b.mu.Unlock()
	if t.probe {
		b.probing = false
	}
	switch o {
	case Success:
		b.consecutive = 0
		if b.state != Healthy && (b.state != Open || t.probe) {
			b.setLocked(Healthy)
		}
	case Failure:
		b.consecutive++
		switch {
		case t.probe:
			b.openedAt = b.Now() // stays open for a fresh cooldown
		case b.consecutive >= b.breakAfter:
			if b.state != Open {
				if b.counters.Opened != nil {
					b.counters.Opened.Add(1)
				}
				b.openedAt = b.Now()
				b.setLocked(Open)
			}
		case b.consecutive >= b.degradeAfter && b.state == Healthy:
			b.setLocked(Degraded)
		}
	}
}

// setLocked transitions the state and mirrors it into the gauge.
func (b *Breaker) setLocked(st State) {
	b.state = st
	if b.counters.State != nil {
		b.counters.State.Store(int64(st))
	}
}
