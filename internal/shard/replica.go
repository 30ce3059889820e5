package shard

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dsks"
	"dsks/internal/breaker"
)

// Replication sentinels, matchable with errors.Is through every wrap.
var (
	// ErrReplicaLagging reports a failover that found replicas alive but
	// none fresh enough: the freshest AppliedLSN sits more than the
	// configured staleness bound behind the LSN the request pinned.
	ErrReplicaLagging = errors.New("shard: replica lagging past the staleness bound")
	// ErrShardUnavailable reports a shard with no serving path left:
	// the primary is down and no live replica can cover
	// for it. It is strictly worse than ErrShardDown, which a healthy
	// replica can still absorb.
	ErrShardUnavailable = errors.New("shard: shard unavailable on every path")
)

// Replication and failover counter/gauge names in the set's registry.
const (
	// CounterLegRetries counts fan-out leg attempts beyond the first.
	CounterLegRetries = "leg_retries_total"
	// CounterHedgedReads counts replica legs launched because the
	// primary outlived the hedging delay.
	CounterHedgedReads = "hedged_reads_total"
	// CounterFailovers counts legs served by (or sent to) a replica
	// because the primary failed or was marked down.
	CounterFailovers = "failovers_total"
	// GaugeReplicaApplied is the minimum AppliedLSN over every replica
	// in the set — the LSN the slowest follower has reached.
	GaugeReplicaApplied = "shard_replica_applied_lsn"
	// GaugeReplicaLag is the maximum (DurableLSN − AppliedLSN) over
	// every replica — the worst staleness a failover read could see.
	GaugeReplicaLag = "shard_replica_lag"
)

// Shard health states reported on /healthz and /varz.
const (
	// HealthPrimary: the primary is serving (the normal state).
	HealthPrimary = "primary"
	// HealthReplica: the primary is marked down; replicas carry reads.
	HealthReplica = "replica"
	// HealthDown: the primary is down and no live replica remains.
	HealthDown = "down"
)

// Replica is one WAL-shipped read replica of a shard: its own dsks.DB,
// converging on the primary by tailing the primary's log and applying
// each durable record through the same replay path a restart uses. A
// replica never writes a log of its own — the primary's is the single
// source of truth — so its AppliedLSN (== its DB's LSN) measured
// against the primary's DurableLSN is its exact staleness.
//
// The tail loop is a single goroutine per replica. It polls with the
// shared deterministic backoff when it has consumed everything durable,
// and stops cleanly in two ways: Close, or a terminal tail/apply error
// (corrupt shipping, divergent replay). After a terminal error the
// replica's database still serves reads at its last applied version —
// it reports Err and a growing Lag instead of corrupting — but the
// failover path stops selecting it.
type Replica struct {
	shard, idx int
	db         *dsks.DB
	tail       *dsks.WALTailer
	// target reports the LSN the replica is chasing (the primary's
	// durable horizon).
	target func() uint64
	poll   Backoff
	// applied mirrors db.LSN() for latch-free observation; the gauges
	// and per-replica varz read it.
	applied atomic.Uint64
	// notify recomputes the set-level replication gauges.
	notify func()

	mu   sync.Mutex
	serr error // sticky terminal error

	started atomic.Bool
	stop    chan struct{}
	done    chan struct{}
}

// newReplica wires a replica over an already-opened follower database
// and a tailer positioned at its base LSN. Callers start the tail loop
// with start().
func newReplica(shard, idx int, db *dsks.DB, tail *dsks.WALTailer, target func() uint64, poll Backoff, notify func()) *Replica {
	r := &Replica{
		shard:  shard,
		idx:    idx,
		db:     db,
		tail:   tail,
		target: target,
		poll:   poll,
		notify: notify,
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	r.applied.Store(db.LSN())
	return r
}

func (r *Replica) start() {
	if !r.started.Swap(true) {
		go r.run()
	}
}

// run is the tail-and-apply loop. No latch is ever held across the
// blocking calls: Next reads segment files, ApplyShipped takes the
// follower's own write latch internally, and the poll sleep holds
// nothing at all.
func (r *Replica) run() {
	defer close(r.done)
	idle := 0
	for {
		select {
		case <-r.stop:
			return
		default:
		}
		rec, ok, err := r.tail.Next()
		if err != nil {
			r.fail(fmt.Errorf("shard: replica %d of shard %d: tailing: %w", r.idx, r.shard, err))
			return
		}
		if !ok {
			// Caught up (or the tail is torn and can only grow): report
			// the current lag and poll again after a jittered delay.
			r.notify()
			idle++
			t := time.NewTimer(r.poll.Delay(idle - 1))
			select {
			case <-r.stop:
				t.Stop()
				return
			case <-t.C:
			}
			continue
		}
		idle = 0
		if err := r.db.ApplyShipped(rec); err != nil {
			r.fail(fmt.Errorf("shard: replica %d of shard %d: applying LSN %d: %w", r.idx, r.shard, rec.LSN, err))
			return
		}
		r.applied.Store(rec.LSN)
		r.notify()
	}
}

// fail records the terminal error and publishes the final gauge state.
func (r *Replica) fail(err error) {
	r.mu.Lock()
	r.serr = err
	r.mu.Unlock()
	r.notify()
}

// AppliedLSN is the last primary commit the replica has applied.
func (r *Replica) AppliedLSN() uint64 { return r.applied.Load() }

// Lag is how many durable primary records the replica has yet to
// apply.
func (r *Replica) Lag() uint64 {
	t, a := r.target(), r.applied.Load()
	if t <= a {
		return 0
	}
	return t - a
}

// Err returns the replica's sticky terminal error, nil while healthy.
func (r *Replica) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.serr
}

// View pins a read view on the replica's database.
func (r *Replica) View(ctx context.Context) (*dsks.View, error) { return r.db.View(ctx) }

// Close stops the tail loop and closes the replica's database.
func (r *Replica) Close() error {
	select {
	case <-r.stop:
	default:
		close(r.stop)
	}
	if r.started.Load() {
		<-r.done
	}
	r.tail.Close()
	return r.db.Close()
}

// ReplicaVarz is one replica's observability snapshot (see ShardVarz).
type ReplicaVarz struct {
	AppliedLSN uint64 `json:"appliedLSN"`
	Lag        uint64 `json:"lag"`
	Err        string `json:"error,omitempty"`
}

// ShardReplicas snapshots shard i's replicas for /varz.
func (s *Set) ShardReplicas(i int) []ReplicaVarz {
	if i < 0 || i >= len(s.shards) {
		return nil
	}
	reps := s.shards[i].replicas
	out := make([]ReplicaVarz, len(reps))
	for j, r := range reps {
		out[j] = ReplicaVarz{AppliedLSN: r.AppliedLSN(), Lag: r.Lag()}
		if err := r.Err(); err != nil {
			out[j].Err = err.Error()
		}
	}
	return out
}

// ShardHealth classifies shard i for /healthz and /varz: "primary"
// while the primary serves, "replica" while it is down but at least one
// live replica covers reads, "down" when no path remains.
func (s *Set) ShardHealth(i int) string {
	if i < 0 || i >= len(s.shards) {
		return HealthDown
	}
	st := &s.shards[i]
	if st.health == nil || st.health.State() != breaker.Open {
		return HealthPrimary
	}
	for _, r := range st.replicas {
		if r.Err() == nil {
			return HealthReplica
		}
	}
	return HealthDown
}

// Health is the per-shard health vector.
func (s *Set) Health() []string {
	out := make([]string, len(s.shards))
	for i := range out {
		out[i] = s.ShardHealth(i)
	}
	return out
}

// freshestReplica selects shard i's best failover target: the live
// replica with the highest AppliedLSN, provided it sits within the
// staleness bound of the LSN the request pinned (want). MaxStaleness 0
// means unbounded.
func (s *Set) freshestReplica(i int, want uint64) (*Replica, error) {
	var best *Replica
	for _, r := range s.shards[i].replicas {
		if r.Err() != nil {
			continue
		}
		if best == nil || r.AppliedLSN() > best.AppliedLSN() {
			best = r
		}
	}
	if best == nil {
		return nil, fmt.Errorf("shard: shard %d: %w: no live replica", i, ErrShardUnavailable)
	}
	if applied := best.AppliedLSN(); s.opts.MaxStaleness > 0 && applied+s.opts.MaxStaleness < want {
		return nil, fmt.Errorf("shard: shard %d: %w: freshest replica at LSN %d is %d behind pinned LSN %d (bound %d): %w",
			i, ErrReplicaLagging, applied, want-applied, want, s.opts.MaxStaleness, ErrShardUnavailable)
	}
	return best, nil
}

// refreshReplicaGauges recomputes the set-level replication gauges from
// every replica's atomics; replica loops call it on each apply and poll.
func (s *Set) refreshReplicaGauges() {
	if s.opts.Replicas == 0 {
		return
	}
	minApplied, maxLag := ^uint64(0), uint64(0)
	for i := range s.shards {
		for _, r := range s.shards[i].replicas {
			if a := r.AppliedLSN(); a < minApplied {
				minApplied = a
			}
			if l := r.Lag(); l > maxLag {
				maxLag = l
			}
		}
	}
	if minApplied == ^uint64(0) {
		minApplied = 0
	}
	s.repApplied.Store(int64(minApplied))
	s.repLag.Store(int64(maxLag))
}

// startReplicas opens shard i's replicas over the given base states.
// Exactly one of seeds (fresh collections, built apart from the primary's,
// base LSN 0) or snapDir (a shard snapshot directory whose
// manifest carries the base LSN) is used. The tail loops are NOT started
// here: they call refreshReplicaGauges, which walks every shard's
// replica slice, so launchReplicas runs them only once the whole set is
// wired.
func (s *Set) startReplicas(i int, seeds []*dsks.Collection, snapDir string) error {
	st := &s.shards[i]
	primary := st.db
	st.replicas = make([]*Replica, 0, s.opts.Replicas)
	// A replica has no WAL of its own: the primary's log is the single
	// source of truth.
	opts := s.opts.DB
	opts.WALDir = ""
	for j := 0; j < s.opts.Replicas; j++ {
		var (
			rdb *dsks.DB
			err error
		)
		if snapDir != "" {
			rdb, err = dsks.OpenPath(snapDir, opts)
		} else {
			rdb, err = dsks.Open(s.g, seeds[j], s.vocab, opts)
		}
		if err != nil {
			return fmt.Errorf("shard: opening replica %d of shard %d: %w", j, i, err)
		}
		tail, err := primary.TailWAL(rdb.LSN())
		if err != nil {
			_ = rdb.Close()
			return fmt.Errorf("shard: tailing shard %d for replica %d: %w", i, j, err)
		}
		poll := Backoff{Base: replicaPollBase, Cap: replicaPollCap,
			Seed: s.opts.Seed ^ splitmix64(uint64(i)<<16|uint64(j))}
		rep := newReplica(i, j, rdb, tail, primary.DurableLSN, poll, s.refreshReplicaGauges)
		st.replicas = append(st.replicas, rep)
	}
	return nil
}

// launchReplicas starts every replica's tail loop. Separate from
// startReplicas so no loop observes a half-built set.
func (s *Set) launchReplicas() {
	for i := range s.shards {
		for _, r := range s.shards[i].replicas {
			r.start()
		}
	}
}

const (
	replicaPollBase = time.Millisecond
	replicaPollCap  = 16 * time.Millisecond
)
