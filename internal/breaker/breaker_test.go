package breaker

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// op is one event in a scenario.
type op int

const (
	run    op = iota // admit a plain ticket and end it with the step's outcome
	admit            // admit a ticket (a probe when the step says so) and hold it
	end              // end the most recently held ticket with the step's outcome
	refuse           // admission must be refused
	wait             // advance the clock by the step's duration
)

// step is one event and the state the breaker must be in after it.
type step struct {
	op    op
	out   Outcome       // run, end
	probe bool          // admit: whether the ticket must be the probe
	d     time.Duration // wait
	want  State
}

// scenario is a breaker configuration and the events driven through it.
type scenario struct {
	name                  string
	degradeAfter, breakAt int
	cooldown              time.Duration
	steps                 []step
	opened, shed          int64 // the counters at the end
}

// play drives sc through a breaker on a stubbed clock.
func play(t *testing.T, sc scenario) {
	t.Helper()
	var opened, shed, gauge atomic.Int64
	b := New(sc.degradeAfter, sc.breakAt, sc.cooldown, Counters{Opened: &opened, Shed: &shed, State: &gauge})
	clock := time.Unix(1000, 0)
	b.Now = func() time.Time { return clock }
	if st := b.State(); st != Healthy {
		t.Fatalf("initial state %v", st)
	}
	var held []Ticket
	for i, s := range sc.steps {
		switch s.op {
		case run:
			tk, ok := b.Allow()
			if !ok || tk.Probe() {
				t.Fatalf("step %d: run admitted %v as probe %v, want a plain ticket", i, ok, tk.Probe())
			}
			tk.End(s.out)
		case admit:
			tk, ok := b.Allow()
			if !ok || tk.Probe() != s.probe {
				t.Fatalf("step %d: admitted %v as probe %v, want admitted as probe %v", i, ok, tk.Probe(), s.probe)
			}
			held = append(held, tk)
		case end:
			held[len(held)-1].End(s.out)
			held = held[:len(held)-1]
		case refuse:
			if _, ok := b.Allow(); ok {
				t.Fatalf("step %d: admitted, want refused", i)
			}
		case wait:
			clock = clock.Add(s.d)
		}
		if st := b.State(); st != s.want {
			t.Fatalf("step %d: state %v, want %v", i, st, s.want)
		}
		if g := State(gauge.Load()); g != s.want {
			t.Fatalf("step %d: gauge %v, want %v", i, g, s.want)
		}
	}
	if opened.Load() != sc.opened || shed.Load() != sc.shed {
		t.Errorf("opened %d shed %d, want %d and %d", opened.Load(), shed.Load(), sc.opened, sc.shed)
	}
}

// tripped is the shard router's configuration (degradeAfter ==
// breakAfter == 2, one-minute cooldown) up to the second failure, which
// opens the breaker.
var tripped = []step{
	{op: run, out: Success, want: Healthy},
	{op: run, out: Failure, want: Healthy},
	{op: run, out: Failure, want: Open},
}

func shardRow(name string, shed int64, steps ...step) scenario {
	return scenario{name: name, degradeAfter: 2, breakAt: 2, cooldown: time.Minute,
		steps: append(append([]step(nil), tripped...), steps...), opened: 1, shed: shed}
}

func TestBreakerStateMachine(t *testing.T) {
	for _, sc := range []scenario{
		{
			// The server's configuration: degrade on 2, open on 4.
			name: "degrade heal open probe", degradeAfter: 2, breakAt: 4, cooldown: time.Second,
			steps: []step{
				{op: run, out: Failure, want: Healthy},
				{op: run, out: Failure, want: Degraded},
				// A success heals degraded and resets the streak.
				{op: run, out: Success, want: Healthy},
				{op: run, out: Failure, want: Healthy},
				{op: run, out: Failure, want: Degraded},
				{op: run, out: Failure, want: Degraded},
				{op: run, out: Failure, want: Open},
				// Open and inside the cooldown: everything is refused.
				{op: refuse, want: Open},
				// After the cooldown exactly one probe goes through.
				{op: wait, d: time.Second, want: Open},
				{op: admit, probe: true, want: Open},
				{op: refuse, want: Open},
				// A failed probe re-opens for a fresh cooldown.
				{op: end, out: Failure, want: Open},
				{op: refuse, want: Open},
				// The next probe succeeds: fully closed.
				{op: wait, d: time.Second, want: Open},
				{op: admit, probe: true, want: Open},
				{op: end, out: Success, want: Healthy},
				{op: run, out: Success, want: Healthy},
			},
			opened: 1, shed: 3,
		},
		shardRow("trips on the 2nd failure", 0),
		shardRow("refused inside the cooldown", 1,
			step{op: wait, d: time.Minute - 1, want: Open},
			step{op: refuse, want: Open}),
		shardRow("exactly one probe", 1,
			step{op: wait, d: time.Minute, want: Open},
			step{op: admit, probe: true, want: Open},
			step{op: refuse, want: Open}),
		shardRow("a failed probe restarts the cooldown", 1,
			step{op: wait, d: time.Minute, want: Open},
			step{op: admit, probe: true, want: Open},
			step{op: end, out: Failure, want: Open},
			step{op: refuse, want: Open},
			step{op: wait, d: time.Minute, want: Open},
			step{op: admit, probe: true, want: Open}),
		shardRow("success heals", 0,
			step{op: wait, d: time.Minute, want: Open},
			step{op: admit, probe: true, want: Open},
			step{op: end, out: Success, want: Healthy},
			step{op: admit, probe: false, want: Healthy}),
		{
			// Work admitted before the trip that succeeds after it says
			// nothing about the probe's question: only the probe closes.
			name: "a late plain success keeps it open", degradeAfter: 1, breakAt: 1, cooldown: time.Second,
			steps: []step{
				{op: admit, probe: false, want: Healthy},
				{op: run, out: Failure, want: Open},
				{op: end, out: Success, want: Open},
				{op: refuse, want: Open},
			},
			opened: 1, shed: 1,
		},
	} {
		t.Run(sc.name, func(t *testing.T) { play(t, sc) })
	}
}

func TestBreakerNeutralProbeReleasesSlot(t *testing.T) {
	play(t, scenario{
		degradeAfter: 1, breakAt: 1, cooldown: time.Second,
		steps: []step{
			{op: run, out: Failure, want: Open},
			{op: wait, d: time.Second, want: Open},
			{op: admit, probe: true, want: Open},
			// The probe came back neutral (a bad request, a lost race, a
			// panic): the breaker stays open but the slot frees at once.
			{op: end, out: Neutral, want: Open},
			{op: admit, probe: true, want: Open},
		},
		opened: 1,
	})
}

// TestBreakerConcurrentTickets ends tickets from several goroutines at
// once; whatever the interleaving, no probe slot is left held, so past the
// cooldown the breaker admits again.
func TestBreakerConcurrentTickets(t *testing.T) {
	b := New(2, 3, time.Nanosecond, Counters{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				if tk, ok := b.Allow(); ok {
					tk.End(Outcome((g + i) % 3))
				}
			}
		}(g)
	}
	wg.Wait()
	later := time.Now().Add(time.Hour)
	b.Now = func() time.Time { return later }
	tk, ok := b.Allow()
	if !ok {
		t.Fatalf("state %v: refused past the cooldown with no ticket outstanding", b.State())
	}
	tk.End(Success)
}
