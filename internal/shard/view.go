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
	"dsks/internal/metrics"
)

// KindMerge labels the router's merge-phase latency samples in the
// set's metrics registry.
const KindMerge = metrics.KindMerge

// ShardError is one failed leg in a result envelope.
type ShardError struct {
	Shard int    `json:"shard"`
	Err   string `json:"error"`
}

// Meta describes how the last query on a MultiView was executed: the
// pinned per-shard LSN vector, which shards were actually queried, how
// many legs routing pruned, and — under the partial-result policy —
// which legs failed.
type Meta struct {
	LSNs    []uint64     `json:"lsns"`
	Queried []int        `json:"queried"`
	Pruned  int          `json:"pruned"`
	Partial bool         `json:"partial,omitempty"`
	Errors  []ShardError `json:"shardErrors,omitempty"`
}

// MultiView is a pinned read view over every shard: one dsks.View per
// shard, all pinned before the first result is read, so one request sees
// one consistent per-shard LSN vector. Like dsks.View it serves exactly
// one request at a time — methods must not be called concurrently on the
// same MultiView.
type MultiView struct {
	set    *Set
	views  []*dsks.View // pinned on each shard's primary
	lsns   []uint64
	meta   Meta
	closed atomic.Bool
	// racers counts the goroutines of the failover races in flight. A
	// query whose legs are streams waits for them before it returns, and
	// Close waits for the rest, so no losing side still holds a stream or
	// a replica view after either.
	racers sync.WaitGroup
}

// LSNs is the pinned per-shard commit LSN vector.
func (mv *MultiView) LSNs() []uint64 { return mv.lsns }

// Meta reports how the most recent query on this view was executed.
func (mv *MultiView) Meta() Meta { return mv.meta }

// LiveObjects sums the pinned views' live object counts.
func (mv *MultiView) LiveObjects() int {
	total := 0
	for _, v := range mv.views {
		total += v.LiveObjects()
	}
	return total
}

// Close closes every per-shard view. Idempotent. It first waits for the
// losing sides of the view's failover races: the race was decided and
// their contexts canceled, so they are already on their way out, and
// waiting here means that once Close returns the view pins nothing on any
// database, replicas included.
func (mv *MultiView) Close() {
	if mv.closed.Swap(true) {
		return
	}
	mv.racers.Wait()
	for _, v := range mv.views {
		if v != nil {
			v.Close()
		}
	}
}

// clientClass reports an error the query itself caused (or its context):
// identical on every shard, never a reason to mark a shard down.
func clientClass(err error) bool {
	return errors.Is(err, dsks.ErrCanceled) ||
		errors.Is(err, dsks.ErrDeadlineExceeded) ||
		errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, dsks.ErrUnknownEdge) ||
		errors.Is(err, dsks.ErrTermOutOfRange) ||
		errors.Is(err, dsks.ErrNoPath) ||
		errors.Is(err, dsks.ErrViewClosed)
}

// legError classifies and wraps one leg's failure.
func legError(shard int, err error) error {
	if clientClass(err) {
		return err
	}
	return fmt.Errorf("shard: shard %d: %w: %w", shard, ErrShardDown, err)
}

// Per-leg retry backoff: small enough to fit several attempts inside a
// request timeout, jittered so concurrent legs don't retry in lockstep.
const (
	legRetryBase = 2 * time.Millisecond
	legRetryCap  = 50 * time.Millisecond
)

// legOps is a leg's unit of work under the failover protocol, on either
// side of it: open a cursor's stream, or reopen it, up to its next
// candidate. discard releases a stream the protocol opened and nobody will
// use: the side of a race that answered second.
type legOps struct {
	primary func(ctx context.Context) (opened, error) // on the request's pinned view
	replica func(ctx context.Context) (opened, error) // on a replica view pinned for the attempt
	discard func(opened)
}

// noCancel is the release of a product made under the request's own
// context.
func noCancel() {}

// runLeg performs one leg's unit of work under the failover protocol:
//
//   - a shard with no replicas just runs on its view;
//   - a primary its breaker refuses (marked down, and no probe due) is
//     skipped: the leg serves from the freshest replica within the
//     staleness bound;
//   - otherwise the primary runs with capped-backoff retries on transient
//     errors (none for the recovery probe, which decides health as fast as
//     possible); if it outlives the hedging delay, a replica races it and
//     the first answer wins; if it fails for good, the leg fails over to a
//     replica before giving up.
//
// prior, when set, stands for a first primary attempt that already failed
// (a cursor's pull): the ladder starts at its backoff, unhedged.
//
// The returned release ends the context the stream was opened under; the
// cursor calls it when it is done with the stream.
func runLeg(ctx context.Context, mv *MultiView, si int, prior error, ops legOps) (opened, context.CancelFunc, error) {
	s := mv.set
	if mv.direct(si) {
		val, err := ops.primary(ctx)
		return val, noCancel, err
	}
	tk, ok := s.shards[si].health.Allow()
	if !ok {
		s.failTotal.Add(1)
		val, err := ops.replica(ctx)
		return val, noCancel, err
	}
	return racePrimary(ctx, mv, si, prior, tk, ops)
}

// direct reports a leg with nowhere to fail over to: its shard has no
// replicas.
func (mv *MultiView) direct(si int) bool {
	return len(mv.set.shards[si].replicas) == 0
}

// legOutcome is one side's result in the primary/replica race.
type legOutcome struct {
	val     opened
	err     error
	primary bool
}

// racePrimary runs the primary side (with retries) and, when hedging fires
// or the primary fails, the replica side, returning whichever answers
// first together with the release of its context. Each side runs under its
// own context: the loser's is canceled when the race is decided, and a
// loser that answers anyway discards its product itself, so nothing it
// holds outlives it.
//
// tk is the primary's breaker ticket, ended when the race is: success or
// failure as the primary side answered, and neutral when it answered
// nothing about the shard — a client-class error, or a race the replica
// won while the primary was still running. Only shard-class errors count
// against the primary.
func racePrimary(ctx context.Context, mv *MultiView, si int, prior error, tk breaker.Ticket, ops legOps) (opened, context.CancelFunc, error) {
	s := mv.set
	outcome := breaker.Neutral
	defer func() { tk.End(outcome) }()
	retries := s.opts.LegRetries
	if tk.Probe() {
		retries = 0
	}
	pctx, pcancel := context.WithCancel(ctx)
	rctx, rcancel := context.WithCancel(ctx)
	// decided is claimed once, by the side that answers first or by this
	// function ending the race on a client-class error; a side that
	// answers after that lost.
	var decided atomic.Bool
	ch := make(chan legOutcome, 2) // each side sends at most once

	side := func(primary bool, run func() (opened, error)) {
		mv.racers.Add(1)
		go func() {
			defer mv.racers.Done()
			defer func() {
				if r := recover(); r != nil {
					ch <- legOutcome{err: fmt.Errorf("shard: shard %d: %w: panic: %v", si, ErrShardDown, r), primary: primary}
				}
			}()
			val, err := run()
			if err == nil && !decided.CompareAndSwap(false, true) {
				ops.discard(val)
				return
			}
			ch <- legOutcome{val: val, err: err, primary: primary}
		}()
	}

	side(true, func() (opened, error) {
		bo := Backoff{Base: legRetryBase, Cap: legRetryCap, Seed: s.opts.Seed ^ splitmix64(uint64(si))}
		var val opened
		err := prior
		for attempt := 0; ; attempt++ {
			if attempt > 0 || prior == nil {
				val, err = ops.primary(pctx)
			}
			if err == nil || clientClass(err) || attempt >= retries {
				return val, err
			}
			s.retryTotal.Add(1)
			t := time.NewTimer(bo.Delay(attempt))
			select {
			case <-pctx.Done():
				t.Stop()
				return val, err
			case <-t.C:
			}
		}
	})

	var hedgeC <-chan time.Time
	if prior == nil && s.opts.HedgeAfter > 0 {
		ht := time.NewTimer(s.opts.HedgeAfter)
		defer ht.Stop()
		hedgeC = ht.C
	}
	launched := false
	launch := func() {
		launched = true
		side(false, func() (opened, error) { return ops.replica(rctx) })
	}
	lose := func(err error) (opened, context.CancelFunc, error) {
		pcancel()
		rcancel()
		return opened{}, noCancel, err
	}

	var pErr, rErr error
	pDone, rDone := false, false
	for {
		select {
		case out := <-ch:
			if out.err == nil {
				if out.primary {
					outcome = breaker.Success
					rcancel()
					return out.val, pcancel, nil
				}
				pcancel()
				return out.val, rcancel, nil
			}
			if out.primary {
				pDone = true
				if clientClass(out.err) {
					if decided.CompareAndSwap(false, true) {
						return lose(out.err)
					}
					// The replica answered at the same moment and its
					// product is on its way: take it.
					continue
				}
				outcome = breaker.Failure
				pErr = out.err
				if !launched {
					s.failTotal.Add(1)
					launch()
				}
			} else {
				rDone = true
				rErr = out.err
			}
			if pDone && (rDone || !launched) {
				if rErr != nil {
					return lose(fmt.Errorf("%w; failover: %w", pErr, rErr))
				}
				return lose(pErr)
			}
		case <-hedgeC:
			hedgeC = nil
			if !launched {
				s.hedgeTotal.Add(1)
				launch()
			}
		}
	}
}

// pinReplica pins a view on the shard's freshest live replica within the
// staleness bound of the LSN this request pinned. The caller closes it.
func (mv *MultiView) pinReplica(ctx context.Context, si int) (*dsks.View, error) {
	rep, err := mv.set.freshestReplica(si, mv.lsns[si])
	if err != nil {
		return nil, err
	}
	return rep.View(ctx)
}

// gather applies the failure policy to a query's ended legs and folds the
// envelopes of the ones that succeeded into res. It returns nil when every
// leg succeeded, the primary failure under first-error-wins (or when every
// leg failed), and an ErrPartialResult-wrapped primary when the
// partial-result policy salvaged a strict subset. Cancellation legs never
// mask a real failure.
func (mv *MultiView) gather(targets []int, cursors []*legCursor, res *dsks.Result) error {
	var primary, canceled error
	var fails []ShardError
	for _, c := range cursors {
		switch {
		case c.err == nil:
			res.DiskReads += c.res.DiskReads
			res.Stats.Add(c.res.Stats)
			continue
		case errors.Is(c.err, dsks.ErrCanceled) || errors.Is(c.err, dsks.ErrDeadlineExceeded):
			if canceled == nil {
				canceled = c.err
			}
		default:
			if primary == nil {
				primary = c.err
			}
		}
		fails = append(fails, ShardError{Shard: c.shard, Err: c.err.Error()})
	}
	if primary == nil {
		primary = canceled
	}
	mv.meta = Meta{LSNs: mv.lsns, Queried: targets, Pruned: len(mv.views) - len(targets)}
	if primary == nil {
		return nil
	}
	// A client-class error (bad query, canceled context) fails the
	// request whole under either policy: every leg saw the same query.
	if !mv.set.opts.Partial || len(fails) == len(cursors) || clientClass(primary) {
		return primary
	}
	mv.set.partTotal.Add(1)
	mv.meta.Partial = true
	mv.meta.Errors = fails
	return fmt.Errorf("%w: %d of %d legs failed: %w", ErrPartialResult, len(fails), len(targets), primary)
}

// finish stamps the merged result with the request wall time and records
// the router's one sample for the query — merge is the time the router
// itself spent merging — in its registry. A failed query is recorded as an
// error, a cancellation classified as one, and returns the zero Result.
func (mv *MultiView) finish(res *dsks.Result, start time.Time, merge time.Duration, err error) {
	failed := err != nil && !errors.Is(err, ErrPartialResult)
	mv.set.reg.Record(KindMerge, metrics.Sample{
		Elapsed:    merge,
		Err:        failed,
		Canceled:   errors.Is(err, dsks.ErrCanceled) || errors.Is(err, dsks.ErrDeadlineExceeded),
		Candidates: int64(len(res.Candidates) + len(res.Ranked)),
		DiskReads:  res.DiskReads,
	})
	if failed {
		*res = dsks.Result{}
		return
	}
	res.Elapsed = time.Since(start)
}
