package shard

import (
	"context"
	"fmt"
	"math"
	"time"

	"dsks"
	"dsks/internal/core"
	"dsks/internal/minheap"
)

// legMerge is the k-way merge of the legs' arrival streams: the next
// arrival overall is the least (distance, object ID) among the legs' heads.
// Shards are edge-disjoint and every leg measures distance on the full
// network, so the merged sequence is the one an unsharded expansion
// produces, and every query family runs over it unchanged
// (core.ArrivalSource).
//
// A leg is pulled only when its head is needed: all of them before the
// first arrival, then the one whose head was delivered last — so a leg is
// never read past what the consumer took plus its one head.
type legMerge struct {
	legs    []core.ArrivalSource
	heads   []dsks.Candidate
	terms   []dsks.TermSet      // each head's matched terms (OR legs)
	order   minheap.Heap[int32] // key head distance, ID head object, Val leg index
	refill  int                 // the leg whose head was delivered last; -1 when every head stands
	limit   float64             // the radius Limit lowered the merge to
	pulling time.Duration       // time spent inside the legs' Next
	primed  bool
	stopped bool
	err     error
}

func newLegMerge(legs []core.ArrivalSource) *legMerge {
	return &legMerge{legs: legs, heads: make([]dsks.Candidate, len(legs)),
		terms: make([]dsks.TermSet, len(legs)), refill: -1, limit: math.Inf(1)}
}

// pull moves leg i's next candidate into its head; an exhausted leg leaves
// the merge.
func (m *legMerge) pull(i int) error {
	start := time.Now()
	c, ok, err := m.legs[i].Next()
	m.pulling += time.Since(start)
	if err != nil || !ok {
		return err
	}
	m.heads[i], m.terms[i] = c, m.legs[i].Terms()
	m.order.Push(c.Dist, int32(c.Ref.ID), int32(i))
	return nil
}

// Next returns the next arrival over all legs. A leg's error ends the
// merge: it is returned now and on every later call.
func (m *legMerge) Next() (dsks.Candidate, bool, error) {
	if m.err != nil || m.stopped {
		return dsks.Candidate{}, false, m.err
	}
	if !m.primed {
		m.primed = true
		for i := range m.legs {
			if m.err = m.pull(i); m.err != nil {
				return dsks.Candidate{}, false, m.err
			}
		}
	} else if m.refill >= 0 {
		if m.err = m.pull(m.refill); m.err != nil {
			return dsks.Candidate{}, false, m.err
		}
	}
	m.refill = -1
	if m.order.Len() == 0 || m.order.Min().Key > m.limit {
		return dsks.Candidate{}, false, nil
	}
	m.refill = int(m.order.Pop().Val)
	return m.heads[m.refill], true, nil
}

// Terms reports the matched terms of the arrival Next returned last.
func (m *legMerge) Terms() dsks.TermSet {
	if m.refill < 0 {
		return dsks.TermSet{}
	}
	return m.terms[m.refill]
}

// Limit lowers every leg's radius to d; a head already pulled from past d
// is never delivered.
func (m *legMerge) Limit(d float64) {
	m.limit = min(m.limit, d)
	for _, l := range m.legs {
		l.Limit(d)
	}
}

// Stop stops every leg, each exactly once however often it is called.
func (m *legMerge) Stop() {
	if m.stopped {
		return
	}
	m.stopped = true
	for _, l := range m.legs {
		l.Stop()
	}
}

// opened is a cursor's product under the failover protocol: a stream and
// the next candidate it has for the merge.
type opened struct {
	st *dsks.Stream
	// rv is the replica view st reads, pinned for it; nil for a stream on
	// the request's own pinned view.
	rv   *dsks.View
	next dsks.Candidate
	ok   bool // false: st is exhausted
}

// legCursor is one routed shard's leg of a query: the shard's stream —
// boolean, or OR for ranked and collective — pulled one candidate at a
// time on the request goroutine. The failover protocol's unit is the cursor's open
// (the stream's eager first edge load plus the first pull, which is where
// a dead shard shows — retried, hedged and failed over by runLeg) and then
// each later pull (one node settle: retried and failed over, never
// hedged). Either way a replacement stream is fast-forwarded past the last
// candidate the merge took, so the merge never sees one twice.
type legCursor struct {
	mv    *MultiView
	ctx   context.Context
	shard int
	q     dsks.SKQuery
	// open starts the leg's stream on a view: (*dsks.View).Stream, or
	// StreamAny for an OR leg.
	open  func(v *dsks.View, ctx context.Context, q dsks.SKQuery) (*dsks.Stream, error)
	limit float64 // the radius Limit lowered the leg to; a replacement stream starts there

	st      *dsks.Stream       // the live stream; nil before the open and once retired
	release context.CancelFunc // ends st's context when a race made one
	// rv is the replica view pinned for this cursor. It lives until the
	// query ends (Stop), whatever happens to the stream that reads it.
	rv       *dsks.View
	failover bool // see adopt

	started bool
	done    bool         // exhausted, failed or stopped
	last    legKey       // the last candidate handed to the merge
	terms   dsks.TermSet // its matched terms

	res dsks.Result // the retired streams' envelopes, folded
	err error       // the failure that ended the leg, classified by legError
}

// legKey is a leg's position: the (distance, object ID) of the last
// candidate the merge took from it, where a replacement stream resumes.
// The zero key is the start of the leg.
type legKey struct {
	taken bool
	dist  float64
	id    dsks.ObjectID
}

// cursors builds a query's boolean leg cursors, unopened, and counts the
// fan-out.
func (mv *MultiView) cursors(ctx context.Context, targets []int, q dsks.SKQuery) []*legCursor {
	s := mv.set
	s.legsTotal.Add(int64(len(targets)))
	s.pruneTotal.Add(int64(len(mv.views) - len(targets)))
	cs := make([]*legCursor, len(targets))
	for k, si := range targets {
		cs[k] = &legCursor{mv: mv, ctx: ctx, shard: si, q: q, open: (*dsks.View).Stream, limit: q.DeltaMax, release: noCancel}
	}
	return cs
}

// ops is the cursor's unit of work for the failover protocol: open a
// stream within the leg's radius and bring it to the candidate after the
// last one taken. Both sides may run at once, and the loser of a hedged
// open past the call that started it, so they work from a copy of the
// position and the radius and never touch the cursor's state.
func (c *legCursor) ops() legOps {
	after, limit := c.last, c.limit
	return legOps{
		primary: func(ctx context.Context) (opened, error) {
			return c.openOn(ctx, c.mv.views[c.shard], nil, after, limit)
		},
		replica: func(ctx context.Context) (opened, error) {
			rv, err := c.mv.pinReplica(ctx, c.shard)
			if err != nil {
				return opened{}, err
			}
			o, err := c.openOn(ctx, rv, rv, after, limit)
			if err != nil {
				rv.Close()
			}
			return o, err
		},
		discard: func(o opened) {
			o.st.Stop()
			if o.rv != nil {
				o.rv.Close()
			}
		},
	}
}

// openOn starts a stream on v within limit and advances it to the first
// candidate past after. A stream that fails has accounted itself.
func (c *legCursor) openOn(ctx context.Context, v, rv *dsks.View, after legKey, limit float64) (opened, error) {
	st, err := c.open(v, ctx, c.q)
	if err != nil {
		return opened{}, err
	}
	st.Limit(limit)
	o := opened{st: st, rv: rv}
	o.next, o.ok, err = c.advance(st, after)
	return o, err
}

// advance pulls st's next candidate. A replacement stream is
// fast-forwarded past the after key (the zero key skips nothing). The sequence is deterministic for a pinned LSN; a replica
// within the staleness bound may differ by what it has not applied yet.
func (c *legCursor) advance(st *dsks.Stream, after legKey) (dsks.Candidate, bool, error) {
	for {
		cand, ok, err := st.Next()
		if err != nil || !ok {
			return dsks.Candidate{}, false, err
		}
		if after.taken && (cand.Dist < after.dist || (cand.Dist == after.dist && cand.Ref.ID <= after.id)) {
			continue
		}
		return cand, true, nil
	}
}

// Next returns the leg's next candidate. A leg that fails for good returns
// its error — or, under the partial-result policy and for a shard-class
// failure, drops out quietly (what it delivered stays) and leaves the
// error in c.err for the query's envelope.
func (c *legCursor) Next() (cand dsks.Candidate, ok bool, err error) {
	if c.done {
		return dsks.Candidate{}, false, nil
	}
	defer func() {
		// A panicking leg is that shard's failure, not the request's.
		if r := recover(); r != nil {
			c.st = nil
			cand, ok, err = c.fail(fmt.Errorf("panic: %v", r))
		}
	}()
	if !c.started {
		c.started = true
		c.mv.set.shards[c.shard].reqs.Add(1)
		cand, ok, err = c.adopt(runLeg(c.ctx, c.mv, c.shard, nil, c.ops()))
	} else if cand, ok, err = c.advance(c.st, legKey{}); err != nil {
		c.st = nil // a failed stream has finished itself
		if c.failover && !clientClass(err) {
			// The open's ladder, unhedged (a pull is one node settle):
			// backoff and retry on a fresh primary stream, then fail over
			// — at once if the primary's breaker refuses it.
			c.release()
			cand, ok, err = c.adopt(runLeg(c.ctx, c.mv, c.shard, err, c.ops()))
		}
	}
	if err != nil {
		return c.fail(err)
	}
	if !ok {
		c.retire()
		return dsks.Candidate{}, false, nil
	}
	c.last = legKey{taken: true, dist: cand.Dist, id: cand.Ref.ID}
	c.terms = c.st.Terms()
	return cand, true, nil
}

// Terms reports the matched terms of the candidate Next returned last.
func (c *legCursor) Terms() dsks.TermSet { return c.terms }

// Limit lowers the leg's radius to d: its live stream's, and that of any
// stream a failover opens in its place.
func (c *legCursor) Limit(d float64) {
	c.limit = min(c.limit, d)
	if c.st != nil {
		c.st.Limit(d)
	}
}

// adopt makes the protocol's product the cursor's live stream.
func (c *legCursor) adopt(o opened, release context.CancelFunc, err error) (dsks.Candidate, bool, error) {
	c.release = release
	if err != nil {
		return dsks.Candidate{}, false, err
	}
	c.st = o.st
	if o.rv != nil {
		c.rv = o.rv
	}
	// Only a stream on the primary of a replicated shard can still be
	// retried and failed over when a later pull fails.
	c.failover = o.rv == nil && !c.mv.direct(c.shard)
	return o.next, o.ok, nil
}

// fail ends the leg on err and decides what the merge sees of it.
func (c *legCursor) fail(err error) (dsks.Candidate, bool, error) {
	c.done = true
	c.err = legError(c.shard, err)
	c.mv.set.shards[c.shard].errs.Add(1)
	if c.mv.set.opts.Partial && !clientClass(err) {
		return dsks.Candidate{}, false, nil
	}
	return dsks.Candidate{}, false, c.err
}

// retire stops the live stream, if any, and folds the envelope it was
// accounted with into the leg's.
func (c *legCursor) retire() {
	c.done = true
	if c.st == nil {
		return
	}
	c.st.Stop()
	r := c.st.Result()
	c.res.DiskReads += r.DiskReads
	c.res.Stats.Add(r.Stats)
	c.st = nil
}

// Stop ends the leg when the query does: the stream is stopped and
// accounted, its context released, the replica view closed.
func (c *legCursor) Stop() {
	c.retire()
	c.release()
	if c.rv != nil {
		c.rv.Close()
	}
}
