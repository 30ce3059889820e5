package shard

import (
	"cmp"
	"context"
	"errors"
	"math/rand"
	"slices"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"dsks"
	"dsks/internal/breaker"
	"dsks/internal/core"
	"dsks/internal/fault"
)

// fakeLeg is an arrival source over a fixed list that can fail instead of
// delivering candidate failAt (negative: never).
type fakeLeg struct {
	cands  []dsks.Candidate
	next   int
	failAt int
	stops  int
}

var errLegBroke = errors.New("leg broke")

func (l *fakeLeg) Next() (dsks.Candidate, bool, error) {
	if l.next == l.failAt {
		return dsks.Candidate{}, false, errLegBroke
	}
	if l.stops > 0 || l.next == len(l.cands) {
		return dsks.Candidate{}, false, nil
	}
	l.next++
	return l.cands[l.next-1], true, nil
}

func (l *fakeLeg) Terms() dsks.TermSet { return dsks.TermSet{} }
func (l *fakeLeg) Limit(float64)       {}
func (l *fakeLeg) Stop()               { l.stops++ }

// TestLegMergeReproducesArrivalOrder: over a random partition of one
// sorted arrival list into 1–6 legs the merge reproduces the list — ties on
// distance across legs resolve by global ID, empty legs and a single leg
// work, no leg is read past its delivered candidates plus one head, Stop
// reaches every leg exactly once, and a leg that errors mid-stream
// surfaces the error with the delivered prefix intact.
func TestLegMergeReproducesArrivalOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for round := 0; round < 200; round++ {
		n := rng.Intn(40)
		list := make([]dsks.Candidate, n)
		for i, id := range rng.Perm(n) {
			// Few distinct distances, so cross-leg ties are the common case.
			list[i].Dist = float64(rng.Intn(6))
			list[i].Ref.ID = dsks.ObjectID(id)
		}
		sort.Slice(list, func(i, j int) bool {
			if list[i].Dist != list[j].Dist {
				return list[i].Dist < list[j].Dist
			}
			return list[i].Ref.ID < list[j].Ref.ID
		})
		nlegs := 1 + rng.Intn(6)
		legs := make([]*fakeLeg, nlegs)
		for i := range legs {
			legs[i] = &fakeLeg{failAt: -1}
		}
		owner := make(map[dsks.ObjectID]int, n)
		for _, c := range list {
			// Legs past the third stay empty in some rounds.
			l := rng.Intn(nlegs)
			if round%3 == 0 && l > 2 {
				l = 0
			}
			legs[l].cands = append(legs[l].cands, c)
			owner[c.Ref.ID] = l
		}
		// Every other round one leg breaks mid-stream.
		broken := -1
		if round%2 == 1 && n > 0 {
			broken = owner[list[rng.Intn(n)].Ref.ID]
			legs[broken].failAt = rng.Intn(len(legs[broken].cands) + 1)
		}

		sources := make([]core.ArrivalSource, nlegs)
		for i, l := range legs {
			sources[i] = l
		}
		m := newLegMerge(sources)
		var got []dsks.Candidate
		var err error
		for {
			var c dsks.Candidate
			var ok bool
			if c, ok, err = m.Next(); err != nil || !ok {
				break
			}
			got = append(got, c)
		}
		if broken < 0 {
			if err != nil || len(got) != n {
				t.Fatalf("round %d: %d of %d arrivals, err %v", round, len(got), n, err)
			}
		} else {
			if !errors.Is(err, errLegBroke) {
				t.Fatalf("round %d: broken leg's error lost: %v after %d arrivals", round, err, len(got))
			}
			if _, _, again := m.Next(); !errors.Is(again, errLegBroke) {
				t.Fatalf("round %d: the merge forgot its error: %v", round, again)
			}
			// The merge got exactly as far as the broken leg let it: every
			// candidate that leg delivered arrived, and nothing after the
			// refill that failed.
			fromBroken := 0
			for _, c := range got {
				if owner[c.Ref.ID] == broken {
					fromBroken++
				}
			}
			if fromBroken != legs[broken].failAt {
				t.Fatalf("round %d: %d arrivals from the broken leg, it delivered %d", round, fromBroken, legs[broken].failAt)
			}
		}
		for i, c := range got {
			if c != list[i] {
				t.Fatalf("round %d: arrival %d is (%v, %d), want (%v, %d)", round, i,
					c.Dist, c.Ref.ID, list[i].Dist, list[i].Ref.ID)
			}
		}
		taken := make([]int, nlegs)
		for _, c := range got {
			taken[owner[c.Ref.ID]]++
		}
		for i, l := range legs {
			if l.next > taken[i]+1 {
				t.Fatalf("round %d: leg %d read %d candidates for %d delivered", round, i, l.next, taken[i])
			}
		}
		m.Stop()
		m.Stop()
		for i, l := range legs {
			if l.stops != 1 {
				t.Fatalf("round %d: leg %d stopped %d times", round, i, l.stops)
			}
		}
		if _, ok, err := m.Next(); ok || (broken < 0 && err != nil) {
			t.Fatalf("round %d: a stopped merge delivered (ok %v, err %v)", round, ok, err)
		}
	}
}

// FuzzLegMerge: an arbitrary (distance, ID) multiset split into legs, each
// in (distance, ID) order, merges into the sorted union; after every
// delivered arrival no leg has been read more than one head past what the
// merge delivered from it; and once Limit lowers the merge's radius
// mid-stream, nothing farther is delivered, whatever the legs still hold.
func FuzzLegMerge(f *testing.F) {
	f.Add([]byte{3, 0, 1, 0, 0, 1, 1, 1, 2, 2})
	f.Add([]byte{1})
	f.Add([]byte{0x85, 5, 5, 5, 5, 5, 5, 0, 0, 0, 7, 31, 4, 3, 3, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		nlegs, limitAt := 1+int(data[0]&0x7f)%6, -1
		legs := make([]*fakeLeg, nlegs)
		for i := range legs {
			legs[i] = &fakeLeg{failAt: -1}
		}
		var want []dsks.Candidate
		for b := data[1:]; len(b) >= 3; b = b[3:] {
			var c dsks.Candidate
			c.Dist, c.Ref.ID = float64(b[0]%8), dsks.ObjectID(b[1]%32)
			l := legs[int(b[2])%nlegs]
			l.cands = append(l.cands, c)
			want = append(want, c)
		}
		byKey := func(a, b dsks.Candidate) int {
			if c := cmp.Compare(a.Dist, b.Dist); c != 0 {
				return c
			}
			return cmp.Compare(a.Ref.ID, b.Ref.ID)
		}
		for _, l := range legs {
			slices.SortFunc(l.cands, byKey)
		}
		slices.SortFunc(want, byKey)
		if data[0]&0x80 != 0 && len(want) > 0 {
			limitAt = len(want) / 2
		}

		sources := make([]core.ArrivalSource, nlegs)
		for i, l := range legs {
			sources[i] = l
		}
		m := newLegMerge(sources)
		taken := make([]int, nlegs)
		for i := 0; ; i++ {
			if i == limitAt {
				d := want[i].Dist
				m.Limit(d)
				for len(want) > i && want[len(want)-1].Dist > d {
					want = want[:len(want)-1]
				}
			}
			c, ok, err := m.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				if i != len(want) {
					t.Fatalf("the merge ended after %d of %d arrivals", i, len(want))
				}
				break
			}
			if i >= len(want) || c != want[i] {
				t.Fatalf("arrival %d is (%v, %d), want %v", i, c.Dist, c.Ref.ID, want[min(i, len(want)-1):])
			}
			taken[m.refill]++
			for j, l := range legs {
				if l.next > taken[j]+1 {
					t.Fatalf("after %d arrivals leg %d was read %d times for %d delivered", i+1, j, l.next, taken[j])
				}
			}
		}
		m.Stop()
	})
}

// divQuery is the single-keyword query of the fan-out tests as a
// diversified one, at a radius that still gives every shard a leg but only
// a dozen-odd candidates; a low λ keeps Algorithm 6 reading them to the end.
func divQuery(t *testing.T, ds *dsks.Dataset) dsks.DivQuery {
	t.Helper()
	q := dsks.DivQuery{SKQuery: wideQuery(t, ds), K: 6, Lambda: 0.1}
	q.DeltaMax = 3000
	return q
}

// diversifyTraced runs a diversified query the way Query does,
// keeping the cursors so the test can see how each leg ended.
func diversifyTraced(ctx context.Context, mv *MultiView, q dsks.DivQuery) (dsks.Result, []*legCursor, error) {
	targets := mv.routed(q.Pos, q.DeltaMax, q.Terms, true)
	cursors := mv.cursors(ctx, targets, q.SKQuery)
	res, _, err := mv.merge(ctx, targets, cursors, q)
	return res, cursors, err
}

// requireLegsEnded asserts nothing of the query is left behind: every
// cursor's stream stopped (and so accounted) and every replica view a
// cursor pinned closed.
func requireLegsEnded(t *testing.T, cursors []*legCursor, q dsks.DivQuery) {
	t.Helper()
	for _, c := range cursors {
		if c.st != nil {
			t.Fatalf("shard %d's stream outlived the query", c.shard)
		}
		if c.rv == nil {
			continue
		}
		if _, err := c.rv.Query(context.Background(), q.SKQuery); !errors.Is(err, dsks.ErrViewClosed) {
			t.Fatalf("shard %d's replica view outlived the query (search on it: %v)", c.shard, err)
		}
	}
}

// failoverFixture is a converged replicated set with the healthy answer to
// its diversified query.
func failoverFixture(t *testing.T, opts Options) (*Set, dsks.DivQuery, dsks.Result) {
	t.Helper()
	set, ds := replicatedSet(t, 4, 1, opts)
	insertStorm(t, set, ds, 30)
	waitReplicasConverged(t, set)
	q := divQuery(t, ds)
	mv, err := set.View(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer mv.Close()
	want, err := mv.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if m := mv.Meta(); len(m.Queried) != 4 || len(want.Candidates) != q.K || want.Stats.EarlyTerminate {
		t.Fatalf("fixture query: legs %v, %d objects, early stop %v; want 4 legs read to the end",
			m.Queried, len(want.Candidates), want.Stats.EarlyTerminate)
	}
	return set, q, want
}

// killPrimary makes every page read of shard si's primary fail from now on.
func killPrimary(t *testing.T, set *Set, si int) {
	t.Helper()
	if err := set.ResetIO(); err != nil {
		t.Fatal(err)
	}
	setFaults(t, set.DB(si), fault.Config{Op: fault.OpRead, EveryN: 1})
}

func consecutiveFailures(h *breaker.Breaker) int { return h.Failures() }

// TestCursorFailoverAtOpen: a primary that fails at cursor open is served
// from its replica — the healthy answer, one failover, the failure on the
// primary's health record.
func TestCursorFailoverAtOpen(t *testing.T) {
	set, q, want := failoverFixture(t, Options{Seed: 4})
	ctx := context.Background()
	killPrimary(t, set, 0)
	failovers := set.failTotal.Load()

	mv, err := set.View(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer mv.Close()
	got, cursors, err := diversifyTraced(ctx, mv, q)
	if err != nil {
		t.Fatalf("query under a dead primary: %v", err)
	}
	requireSameAnswer(t, "failed over at open", want, got)
	requireLegsEnded(t, cursors, q)
	if cursors[0].rv == nil {
		t.Fatal("shard 0's leg did not end on a replica view")
	}
	if d := set.failTotal.Load() - failovers; d != 1 {
		t.Fatalf("failovers_total moved by %d, want 1", d)
	}
	if n := consecutiveFailures(set.shards[0].health); n != 1 {
		t.Fatalf("shard 0 health counts %d failures, want 1", n)
	}
	if m := mv.Meta(); m.Partial || len(m.Errors) != 0 {
		t.Fatalf("meta = %+v, want a full answer", m)
	}
}

// firstPullReads measures, on a cold pool, how many page reads shard si's
// leg of q costs up to its first candidate and in total.
func firstPullReads(t *testing.T, set *Set, si int, q dsks.SKQuery) (first, total int64) {
	t.Helper()
	ctx := context.Background()
	mv, err := set.View(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer mv.Close()
	for _, drain := range []bool{false, true} {
		if err := set.ResetIO(); err != nil {
			t.Fatal(err)
		}
		st, err := mv.views[si].Stream(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		for {
			_, ok, err := st.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok || !drain {
				break
			}
		}
		st.Stop()
		if drain {
			total = st.Result().DiskReads
		} else {
			first = st.Result().DiskReads
		}
	}
	return first, total
}

// midStreamFault picks a shard whose leg of q still reads pages after its
// first candidate and arms its primary, on a cold pool, to fail the first
// such read: the open and the first pull succeed, a later pull fails.
// maxFaults bounds how often the fault fires (0: on every further period).
func midStreamFault(t *testing.T, set *Set, q dsks.SKQuery, maxFaults int) int {
	t.Helper()
	for si := range set.shards {
		first, total := firstPullReads(t, set, si, q)
		if total <= first {
			continue
		}
		if err := set.ResetIO(); err != nil {
			t.Fatal(err)
		}
		setFaults(t, set.DB(si), fault.Config{Op: fault.OpRead, EveryN: int(first) + 1, MaxFaults: maxFaults})
		return si
	}
	t.Fatal("no shard's leg reads a page after its first candidate: no pull to fail")
	return -1
}

// streamSamples reads shard si's primary's stream accounting.
func streamSamples(set *Set, si int) (count, errs, candidates int64) {
	s := set.shards[si].db.Snapshot().Queries[dsks.KindStream]
	return s.Count, s.Errors, s.Candidates
}

// TestCursorFailoverMidStream: a primary that fails after its leg has
// delivered candidates is replaced by a replica stream resumed past the
// delivered prefix — Algorithm 6 sees every arrival once, so the answer
// and its pair-distance and pruning counts are the healthy ones.
func TestCursorFailoverMidStream(t *testing.T) {
	set, q, want := failoverFixture(t, Options{Seed: 4, LegRetries: -1})
	ctx := context.Background()
	si := midStreamFault(t, set, q.SKQuery, 0)
	failovers := set.failTotal.Load()
	_, errsBefore, candsBefore := streamSamples(set, si)

	mv, err := set.View(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer mv.Close()
	got, cursors, err := diversifyTraced(ctx, mv, q)
	if err != nil {
		t.Fatalf("query with a primary failing mid-stream: %v", err)
	}
	requireSameAnswer(t, "failed over mid-stream", want, got)
	requireLegsEnded(t, cursors, q)
	if cursors[si].rv == nil {
		t.Fatalf("shard %d's leg did not end on a replica view", si)
	}
	_, errsAfter, candsAfter := streamSamples(set, si)
	if errsAfter-errsBefore != 1 || candsAfter-candsBefore < 1 {
		t.Fatalf("primary stream: %d failed, %d candidates delivered first; want one stream failing after ≥1",
			errsAfter-errsBefore, candsAfter-candsBefore)
	}
	if d := set.failTotal.Load() - failovers; d != 1 {
		t.Fatalf("failovers_total moved by %d, want 1", d)
	}
	if n := consecutiveFailures(set.shards[si].health); n != 1 {
		t.Fatalf("shard %d health counts %d failures, want 1", si, n)
	}
}

// TestCursorRetryMidStream: a transient failure of a later pull is retried
// on a fresh primary stream, resumed like a failed-over one; the replica is
// never asked.
func TestCursorRetryMidStream(t *testing.T) {
	set, q, want := failoverFixture(t, Options{Seed: 4, LegRetries: 2})
	ctx := context.Background()
	si := midStreamFault(t, set, q.SKQuery, 1)
	failovers, retries := set.failTotal.Load(), set.retryTotal.Load()

	mv, err := set.View(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer mv.Close()
	got, cursors, err := diversifyTraced(ctx, mv, q)
	if err != nil {
		t.Fatalf("query with one transient mid-stream failure: %v", err)
	}
	requireSameAnswer(t, "retried mid-stream", want, got)
	requireLegsEnded(t, cursors, q)
	if cursors[si].rv != nil {
		t.Fatal("a retried leg pinned a replica view")
	}
	if r, f := set.retryTotal.Load()-retries, set.failTotal.Load()-failovers; r != 1 || f != 0 {
		t.Fatalf("leg_retries_total +%d, failovers_total +%d; want +1, +0", r, f)
	}
	if n := consecutiveFailures(set.shards[si].health); n != 0 {
		t.Fatalf("shard %d health counts %d failures after a successful retry", si, n)
	}
}

// TestCursorHedgedOpen: with a nanosecond hedge delay nearly every open
// races a replica open. Whichever wins, the answer is the healthy one and
// the loser leaves nothing behind: the query waits for it to stop its
// stream and close its view.
func TestCursorHedgedOpen(t *testing.T) {
	set, q, want := failoverFixture(t, Options{Seed: 8, HedgeAfter: time.Nanosecond})
	ctx := context.Background()
	hedges := set.hedgeTotal.Load()
	var opened, accounted int64
	streams := func() (n int64) {
		for i := range set.shards {
			n += set.shards[i].db.Snapshot().Queries[dsks.KindStream].Count
			n += set.shards[i].replicas[0].db.Snapshot().Queries[dsks.KindStream].Count
		}
		return n
	}
	opened = streams()
	for i := 0; i < 30; i++ {
		mv, err := set.View(ctx)
		if err != nil {
			t.Fatal(err)
		}
		got, cursors, err := diversifyTraced(ctx, mv, q)
		if err != nil {
			t.Fatalf("hedged query %d: %v", i, err)
		}
		requireSameAnswer(t, "hedged", want, got)
		requireLegsEnded(t, cursors, q)
		// Every stream either side opened is accounted by now: none is
		// still running when the query returns.
		accounted = streams()
		mv.Close()
		if after := streams(); after != accounted {
			t.Fatalf("hedged query %d: %d streams were accounted after the query returned", i, after-accounted)
		}
	}
	if set.hedgeTotal.Load() == hedges {
		t.Fatal("hedged_reads_total stayed put with a nanosecond hedge delay")
	}
	if accounted-opened < 30*4 {
		t.Fatalf("%d streams accounted over 30 four-leg queries", accounted-opened)
	}
}

// TestCursorHedgedLoserReleasesItsView forces the ordering
// TestCursorHedgedOpen meets only by chance: the replica side of a hedged
// open answers after the primary won, and the product it discards must
// give back the replica view it pinned. The pin check of the fixture
// fails the test if it does not.
func TestCursorHedgedLoserReleasesItsView(t *testing.T) {
	set, q, _ := failoverFixture(t, Options{Seed: 8, HedgeAfter: time.Nanosecond})
	ctx := context.Background()
	mv, err := set.View(ctx)
	if err != nil {
		t.Fatal(err)
	}
	c := mv.cursors(ctx, []int{0}, q.SKQuery)[0]
	ops := c.ops()
	primary, replica := ops.primary, ops.replica
	launched := make(chan struct{})
	var loserErr error
	// The primary answers once the replica side runs; the replica side
	// opens only once the race is decided, on a context the decision does
	// not cancel, so it always answers second.
	ops.primary = func(ctx context.Context) (opened, error) {
		<-launched
		return primary(ctx)
	}
	ops.replica = func(ctx context.Context) (opened, error) {
		close(launched)
		<-ctx.Done()
		o, err := replica(context.WithoutCancel(ctx))
		loserErr = err
		return o, err
	}
	o, release, err := runLeg(ctx, mv, 0, nil, ops)
	if err != nil {
		t.Fatal(err)
	}
	if o.rv != nil {
		t.Fatal("the replica side won the race")
	}
	o.st.Stop()
	release()
	mv.Close() // waits for the losing side
	if loserErr != nil {
		t.Fatalf("the losing replica side failed (%v); it must answer for its product to be discarded", loserErr)
	}
}

// tripShard0 points every shard breaker's clock at *clock, records one
// failure on shard 0's primary (DownAfter 1 marks it down) and moves the
// clock past the one-minute cooldown: the next leg on shard 0 is its
// recovery probe.
func tripShard0(t *testing.T, set *Set, clock *time.Time) {
	t.Helper()
	for i := range set.shards {
		set.shards[i].health.Now = func() time.Time { return *clock }
	}
	tk, _ := set.shards[0].health.Allow()
	tk.End(breaker.Failure)
	if h := set.ShardHealth(0); h != HealthReplica {
		t.Fatalf("shard 0 health = %q after a failure with DownAfter 1, want %q", h, HealthReplica)
	}
	*clock = clock.Add(time.Minute)
}

// TestShardProbeExpiredDeadlineReleasesSlot: a recovery probe that ends on
// the request's own expired deadline says nothing about the shard. It
// frees the probe slot, and the next healthy query reclaims the primary.
func TestShardProbeExpiredDeadlineReleasesSlot(t *testing.T) {
	set, q, want := failoverFixture(t, Options{Seed: 4, DownAfter: 1, DownCooldown: time.Minute})
	clock := time.Unix(1000, 0)
	tripShard0(t, set, &clock)
	ctx := context.Background()

	expired, cancel := context.WithDeadline(ctx, time.Unix(0, 0))
	defer cancel()
	mv, err := set.View(ctx)
	if err != nil {
		t.Fatal(err)
	}
	_, err = mv.Query(expired, q)
	mv.Close()
	if !errors.Is(err, dsks.ErrDeadlineExceeded) {
		t.Fatalf("query past its deadline: %v, want ErrDeadlineExceeded", err)
	}

	mv, err = set.View(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer mv.Close()
	got, err := mv.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	requireSameAnswer(t, "after the expired probe", want, got)
	if h := set.ShardHealth(0); h != HealthPrimary {
		t.Fatalf("shard 0 health = %q after a healthy query, want %q", h, HealthPrimary)
	}
}

// TestShardProbeLosingHedgeReleasesSlot: a recovery probe whose primary is
// held until the hedged replica has answered loses the race and ends
// neutral. The next leg is the probe again; with its replica failing, the
// primary answers it and reclaims the shard.
func TestShardProbeLosingHedgeReleasesSlot(t *testing.T) {
	set, q, _ := failoverFixture(t, Options{Seed: 8, HedgeAfter: time.Nanosecond, DownAfter: 1, DownCooldown: time.Minute})
	clock := time.Unix(1000, 0)
	tripShard0(t, set, &clock)
	ctx := context.Background()

	// leg runs shard 0's leg on ops edited by edit, which may return a
	// channel closed once runLeg has returned; it reports whether the
	// replica answered.
	leg := func(edit func(*legOps) chan struct{}) (onReplica bool) {
		mv, err := set.View(ctx)
		if err != nil {
			t.Fatal(err)
		}
		defer mv.Close() // waits for a held side
		c := mv.cursors(ctx, []int{0}, q.SKQuery)[0]
		defer c.Stop()
		ops := c.ops()
		done := edit(&ops)
		_, _, err = c.adopt(runLeg(ctx, mv, 0, nil, ops))
		if done != nil {
			close(done)
		}
		if err != nil {
			t.Fatalf("leg on shard 0: %v", err)
		}
		return c.rv != nil
	}
	holdPrimary := func(ops *legOps) chan struct{} {
		hold, primary := make(chan struct{}), ops.primary
		ops.primary = func(ctx context.Context) (opened, error) {
			<-hold
			return primary(ctx)
		}
		return hold
	}
	failReplica := func(ops *legOps) chan struct{} {
		ops.replica = func(context.Context) (opened, error) {
			return opened{}, errors.New("replica unavailable")
		}
		return nil
	}

	if !leg(holdPrimary) {
		t.Fatal("the held primary won the race")
	}
	if h := set.ShardHealth(0); h != HealthReplica {
		t.Fatalf("shard 0 health = %q after a probe the replica won, want %q", h, HealthReplica)
	}
	if leg(failReplica) {
		t.Fatal("a failing replica answered the leg")
	}
	if h := set.ShardHealth(0); h != HealthPrimary {
		t.Fatalf("shard 0 health = %q after a probe the primary won, want %q", h, HealthPrimary)
	}
}

// TestCursorPartialResult: without replicas, under the partial-result
// policy, a dead shard's leg drops out of the merge; the answer is
// Algorithm 6 over the surviving legs' arrivals and carries
// ErrPartialResult and the failed leg in Meta.
func TestCursorPartialResult(t *testing.T) {
	set, ds := testSet(t, 4, Options{DB: dsks.Options{Index: dsks.IndexSIF}, Partial: true})
	q := divQuery(t, ds)
	ctx := context.Background()
	killPrimary(t, set, 1)
	defer clearFaults(set)

	mv, err := set.View(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer mv.Close()
	got, cursors, err := diversifyTraced(ctx, mv, q)
	if !errors.Is(err, ErrPartialResult) || !errors.Is(err, ErrShardDown) {
		t.Fatalf("err = %v, want ErrPartialResult wrapping ErrShardDown", err)
	}
	requireLegsEnded(t, cursors, q)
	m := mv.Meta()
	if !m.Partial || len(m.Errors) != 1 || m.Errors[0].Shard != 1 {
		t.Fatalf("meta = %+v, want shard 1 failed", m)
	}

	// The surviving arrivals are the partial boolean answer, already in
	// merge order.
	survivors, err := mv.Query(ctx, q.SKQuery)
	if !errors.Is(err, ErrPartialResult) {
		t.Fatalf("partial boolean search: %v", err)
	}
	var want dsks.Result
	if err := q.Answer(ctx, &fakeLeg{cands: survivors.Candidates, failAt: -1}, set.searchNet, &want); err != nil {
		t.Fatal(err)
	}
	if len(got.Candidates) != len(want.Candidates) || len(got.Candidates) == 0 {
		t.Fatalf("chose %d objects, the surviving legs give %d", len(got.Candidates), len(want.Candidates))
	}
	for i := range want.Candidates {
		if got.Candidates[i].Ref.ID != want.Candidates[i].Ref.ID {
			t.Fatalf("object %d is %d, want %d", i, got.Candidates[i].Ref.ID, want.Candidates[i].Ref.ID)
		}
	}
	if got.F != want.F {
		t.Fatalf("objective %v, want %v", got.F, want.F)
	}
}

// TestCursorFirstErrorWins: under the default policy a leg with no serving
// path left fails the query with a clean ErrShardDown, and the legs already
// open — one of them on a replica view — are all ended.
func TestCursorFirstErrorWins(t *testing.T) {
	set, q, _ := failoverFixture(t, Options{Seed: 4})
	ctx := context.Background()
	// Shard 0 lives on its replica; shard 2 has no path left.
	killPrimary(t, set, 0)
	setFaults(t, set.DB(2), fault.Config{Op: fault.OpRead, EveryN: 1})
	rep := set.shards[2].replicas[0].db
	if err := rep.ResetIO(); err != nil {
		t.Fatal(err)
	}
	setFaults(t, rep, fault.Config{Op: fault.OpRead, EveryN: 1})
	merges := set.Snapshot().Queries[KindMerge]

	mv, err := set.View(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer mv.Close()
	got, cursors, err := diversifyTraced(ctx, mv, q)
	if !errors.Is(err, ErrShardDown) || errors.Is(err, ErrPartialResult) {
		t.Fatalf("err = %v, want a clean ErrShardDown", err)
	}
	if len(got.Candidates) != 0 {
		t.Fatalf("a failed query returned %d objects", len(got.Candidates))
	}
	requireLegsEnded(t, cursors, q)
	if cursors[0].rv == nil {
		t.Fatal("shard 0's leg was not on a replica view when the query failed")
	}

	// The public path records the failure: one KindMerge sample, an error.
	if _, err := mv.Query(ctx, q); !errors.Is(err, ErrShardDown) {
		t.Fatalf("Query err = %v, want ErrShardDown", err)
	}
	after := set.Snapshot().Queries[KindMerge]
	if after.Count-merges.Count != 1 || after.Errors-merges.Errors != 1 || after.Canceled != merges.Canceled {
		t.Fatalf("KindMerge moved by %d samples, %d errors, %d canceled; want 1, 1, 0",
			after.Count-merges.Count, after.Errors-merges.Errors, after.Canceled-merges.Canceled)
	}
}

// cancelingCtx is a cancellation without a clock: Err reports
// context.Canceled from the n-th poll on. The legs' expansions and the
// router's distance engine poll between steps, so the cancellation lands
// after the same amount of work on every machine.
type cancelingCtx struct {
	context.Context
	polls atomic.Int64
}

func cancelAfter(polls int64) *cancelingCtx {
	c := &cancelingCtx{Context: context.Background()}
	c.polls.Store(polls)
	return c
}

func (c *cancelingCtx) Err() error {
	if c.polls.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestCursorCanceledMidMerge: a context canceled halfway through the merge
// fails the query with ErrCanceled under either policy, ends every leg,
// and is recorded as exactly one canceled KindMerge sample.
func TestCursorCanceledMidMerge(t *testing.T) {
	for _, partial := range []bool{false, true} {
		set, ds := testSet(t, 4, Options{DB: dsks.Options{Index: dsks.IndexSIF}, Partial: partial})
		q := divQuery(t, ds)
		mv, err := set.View(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		const never = int64(1) << 40
		probe := cancelAfter(never)
		if _, err := mv.Query(probe, q); err != nil {
			t.Fatal(err)
		}
		polls := never - probe.polls.Load()
		if polls < 8 {
			t.Fatalf("the whole query polled its context %d times", polls)
		}

		merges := set.Snapshot().Queries[KindMerge]
		_, err = mv.Query(cancelAfter(polls/2), q)
		if !errors.Is(err, dsks.ErrCanceled) || errors.Is(err, ErrPartialResult) {
			t.Fatalf("partial=%v: err = %v, want ErrCanceled", partial, err)
		}
		after := set.Snapshot().Queries[KindMerge]
		if after.Count-merges.Count != 1 || after.Errors-merges.Errors != 1 || after.Canceled-merges.Canceled != 1 {
			t.Fatalf("partial=%v: KindMerge moved by %d samples, %d errors, %d canceled; want 1 each", partial,
				after.Count-merges.Count, after.Errors-merges.Errors, after.Canceled-merges.Canceled)
		}

		_, cursors, err := diversifyTraced(cancelAfter(polls/2), mv, q)
		if !errors.Is(err, dsks.ErrCanceled) {
			t.Fatalf("partial=%v: traced err = %v, want ErrCanceled", partial, err)
		}
		requireLegsEnded(t, cursors, q)
		started := 0
		for _, c := range cursors {
			if c.started {
				started++
			}
		}
		if started == 0 {
			t.Fatalf("partial=%v: canceled before any leg opened — not mid-merge", partial)
		}
		mv.Close()
	}
}

// TestSearchDiversifiedRejectionsAreRecorded: a router query that is turned
// away before it routes still leaves its one KindMerge sample.
func TestSearchDiversifiedRejectionsAreRecorded(t *testing.T) {
	set, ds := testSet(t, 2, Options{DB: dsks.Options{Index: dsks.IndexSIF}})
	ctx := context.Background()
	mv, err := set.View(ctx)
	if err != nil {
		t.Fatal(err)
	}
	q := divQuery(t, ds)
	bad := q
	bad.K = 0
	unknown := q
	unknown.Pos.Edge = dsks.EdgeID(ds.Graph.NumEdges() + 1)
	merges := set.Snapshot().Queries[KindMerge]
	if _, err := mv.Query(ctx, bad); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := mv.Query(ctx, unknown); !errors.Is(err, dsks.ErrUnknownEdge) {
		t.Fatalf("unknown edge err = %v", err)
	}
	mv.Close()
	if _, err := mv.Query(ctx, q); !errors.Is(err, dsks.ErrViewClosed) {
		t.Fatalf("closed view err = %v", err)
	}
	after := set.Snapshot().Queries[KindMerge]
	if after.Count-merges.Count != 3 || after.Errors-merges.Errors != 3 {
		t.Fatalf("KindMerge moved by %d samples, %d errors; want 3, 3", after.Count-merges.Count, after.Errors-merges.Errors)
	}
}
