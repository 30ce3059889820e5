package shard

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"dsks"
	"dsks/internal/breaker"
	"dsks/internal/core"
	"dsks/internal/fault"
	"dsks/internal/wal"
)

// replicatedSet opens an n-way set with r WAL-shipped replicas per shard.
func replicatedSet(t *testing.T, n, r int, opts Options) (*Set, *dsks.Dataset) {
	t.Helper()
	opts.DB.Index = dsks.IndexSIF
	opts.DB.WALDir = t.TempDir()
	opts.Replicas = r
	ds, err := dsks.GeneratePreset(dsks.PresetSYN, 1000, 42)
	if err != nil {
		t.Fatal(err)
	}
	set, err := Open(ds.Graph, ds.Objects, ds.VocabSize, n, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = set.Close() })
	checkNoPins(t, set)
	return set, ds
}

// waitReplicasConverged polls until every replica's AppliedLSN reaches
// its primary's commit LSN (callers quiesce writes first).
func waitReplicasConverged(t *testing.T, set *Set) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		behind := ""
		for i := range set.shards {
			lsn := set.shards[i].db.LSN()
			for _, rep := range set.shards[i].replicas {
				if err := rep.Err(); err != nil {
					t.Fatalf("replica %d of shard %d died: %v", rep.idx, i, err)
				}
				if at := rep.AppliedLSN(); at < lsn {
					behind = fmt.Sprintf("replica %d of shard %d at LSN %d, its primary at %d", rep.idx, i, at, lsn)
				}
			}
		}
		if behind == "" {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("replicas did not converge: %s; health %v", behind, set.Health())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// insertStorm drives the workload's inserts through the router from
// several goroutines.
func insertStorm(t *testing.T, set *Set, ds *dsks.Dataset, n int) {
	t.Helper()
	ws, err := dsks.GenerateWorkload(ds.Objects, ds.VocabSize, dsks.WorkloadConfig{
		NumQueries: n, Keywords: 2, Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(ws); i += 3 {
				if _, _, err := set.Insert(ws[i].Pos, ws[i].Terms); err != nil {
					t.Errorf("insert %d: %v", i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestReplicasConvergeAndAnswerIdentically(t *testing.T) {
	set, ds := replicatedSet(t, 3, 2, Options{Seed: 9})
	ctx := context.Background()
	q := wideQuery(t, ds)

	insertStorm(t, set, ds, 90)
	waitReplicasConverged(t, set)

	// At equal LSNs, every replica must answer bit-identically to its
	// primary — they applied the same records through the same replay
	// path.
	for i := range set.shards {
		pv, err := set.shards[i].db.View(ctx)
		if err != nil {
			t.Fatal(err)
		}
		want, err := pv.Query(ctx, q)
		pv.Close()
		if err != nil {
			t.Fatalf("shard %d primary: %v", i, err)
		}
		for _, rep := range set.shards[i].replicas {
			if got, lsn := rep.AppliedLSN(), set.shards[i].db.LSN(); got != lsn {
				t.Fatalf("replica %d of shard %d at LSN %d, primary at %d", rep.idx, i, got, lsn)
			}
			rv, err := rep.View(ctx)
			if err != nil {
				t.Fatal(err)
			}
			got, err := rv.Query(ctx, q)
			rv.Close()
			if err != nil {
				t.Fatalf("shard %d replica %d: %v", i, rep.idx, err)
			}
			requireSameCandidates(t, "replica answer", want.Candidates, got.Candidates)
		}
		if varz := set.ShardReplicas(i); len(varz) != 2 || varz[0].Lag != 0 {
			t.Fatalf("shard %d replica varz = %+v, want 2 converged rows", i, varz)
		}
	}
	if h := set.Health(); len(h) != 3 || h[0] != HealthPrimary {
		t.Fatalf("healthy set reports %v", h)
	}
}

// familyAnswers is one pinned view's answer to every query family, plus
// the merged leg stream the diversified family consumes.
type familyAnswers struct {
	search, div, knn, ranked, collective dsks.Result
	stream                               []dsks.Candidate
}

// answerEveryFamily runs the five families and drains the merged stream on
// one fresh view. A partial answer fails t: with replicas, a dead primary
// must cost nothing.
func answerEveryFamily(t *testing.T, set *Set, ds *dsks.Dataset) familyAnswers {
	t.Helper()
	ctx := context.Background()
	q, dq := wideQuery(t, ds), divQuery(t, ds)
	mv, err := set.View(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer mv.Close()
	var a familyAnswers
	for _, run := range []struct {
		name string
		out  *dsks.Result
		do   func() (dsks.Result, error)
	}{
		{"search", &a.search, func() (dsks.Result, error) { return mv.Query(ctx, q) }},
		{"diversified", &a.div, func() (dsks.Result, error) { return mv.Query(ctx, dq) }},
		{"knn", &a.knn, func() (dsks.Result, error) {
			return mv.Query(ctx, dsks.KNNQuery{Pos: q.Pos, Terms: q.Terms, K: 10})
		}},
		{"ranked", &a.ranked, func() (dsks.Result, error) {
			return mv.Query(ctx, dsks.RankedQuery{Pos: q.Pos, Terms: q.Terms, K: 10, Alpha: 0.5, DeltaMax: q.DeltaMax})
		}},
		{"collective", &a.collective, func() (dsks.Result, error) {
			return mv.Query(ctx, dsks.CollectiveQuery{Pos: q.Pos, Terms: q.Terms, DeltaMax: q.DeltaMax})
		}},
	} {
		if *run.out, err = run.do(); err != nil {
			t.Fatalf("%s: %v", run.name, err)
		}
		if mv.Meta().Partial {
			t.Fatalf("%s degraded to a partial result", run.name)
		}
	}
	if a.stream, err = drainStream(ctx, mv, q); err != nil {
		t.Fatalf("stream: %v", err)
	}
	return a
}

// drainStream pulls q's merged leg stream (the arrival sequence of the
// diversified family) to its end.
func drainStream(ctx context.Context, mv *MultiView, q dsks.SKQuery) ([]dsks.Candidate, error) {
	cursors := mv.cursors(ctx, mv.routed(q.Pos, q.DeltaMax, q.Terms, true), q)
	sources := make([]core.ArrivalSource, len(cursors))
	for i, c := range cursors {
		sources[i] = c
	}
	merged := newLegMerge(sources)
	defer func() {
		merged.Stop()
		mv.racers.Wait()
	}()
	var out []dsks.Candidate
	for {
		c, ok, err := merged.Next()
		if err != nil || !ok {
			return out, err
		}
		out = append(out, c)
	}
}

// requireSameFamilies asserts got answers every family as want does.
func requireSameFamilies(t *testing.T, tag string, want, got familyAnswers) {
	t.Helper()
	requireSameCandidates(t, tag+" search", want.search.Candidates, got.search.Candidates)
	requireSameAnswer(t, tag+" diversified", want.div, got.div)
	requireSameCandidates(t, tag+" knn", want.knn.Candidates, got.knn.Candidates)
	requireSameRanked(t, tag+" ranked", want.ranked.Ranked, got.ranked.Ranked)
	wc, gc := want.collective.Collective, got.collective.Collective
	if wc.Covered != gc.Covered || wc.Cost != gc.Cost {
		t.Fatalf("%s collective: covered %v cost %v, want %v, %v", tag, gc.Covered, gc.Cost, wc.Covered, wc.Cost)
	}
	requireSameCandidates(t, tag+" collective", wc.Objects, gc.Objects)
	requireSameCandidates(t, tag+" stream", want.stream, got.stream)
}

// TestReplicaFailoverServesFullResults: with shard 0's primary storage
// dead, every family and the merged stream are answered in full from its
// replica — the primary's answer at the same pinned LSNs — and once the
// primary heals, the next probe reclaims it. A cooldown of a nanosecond
// makes every query after the trip a probe, so no clock is waited on.
func TestReplicaFailoverServesFullResults(t *testing.T) {
	set, ds := replicatedSet(t, 3, 1, Options{
		Seed: 4, DownAfter: 2, DownCooldown: time.Nanosecond,
	})
	insertStorm(t, set, ds, 30)
	waitReplicasConverged(t, set)
	want := answerEveryFamily(t, set, ds)
	if len(want.search.Candidates) == 0 || len(want.stream) != len(want.search.Candidates) {
		t.Fatalf("healthy answers: %d candidates, a stream of %d", len(want.search.Candidates), len(want.stream))
	}

	// Kill shard 0's primary storage: every leg on it fails, and the
	// replica must absorb the reads with zero degradation.
	if err := set.ResetIO(); err != nil {
		t.Fatal(err)
	}
	setFaults(t, set.DB(0), fault.Config{Op: fault.OpRead, EveryN: 1})
	for i := 0; i < 3; i++ {
		requireSameFamilies(t, "failover "+itoa(i), want, answerEveryFamily(t, set, ds))
	}
	if got := set.Metrics().Counter(CounterFailovers).Load(); got == 0 {
		t.Fatal("failovers_total stayed zero under a dead primary")
	}
	if h := set.ShardHealth(0); h != HealthReplica {
		t.Fatalf("shard 0 health = %q after repeated primary failures, want %q", h, HealthReplica)
	}

	// Heal the primary: the next query's probe reclaims it.
	clearFaults(set)
	if err := set.ResetIO(); err != nil {
		t.Fatal(err)
	}
	requireSameFamilies(t, "healed", want, answerEveryFamily(t, set, ds))
	if h := set.ShardHealth(0); h != HealthPrimary {
		t.Fatalf("shard 0 health = %q after a query on the healed primary, want %q", h, HealthPrimary)
	}
}

func TestReplicaHedgedReads(t *testing.T) {
	set, ds := replicatedSet(t, 2, 1, Options{Seed: 8, HedgeAfter: time.Nanosecond})
	ctx := context.Background()
	q := wideQuery(t, ds)
	insertStorm(t, set, ds, 20)
	waitReplicasConverged(t, set)

	// With a hedging delay of a nanosecond, the timer beats nearly every
	// primary leg: replica legs race and the first answer wins. Every
	// query must still succeed with a full answer.
	for i := 0; i < 50; i++ {
		mv, err := set.View(ctx)
		if err != nil {
			t.Fatal(err)
		}
		res, err := mv.Query(ctx, q)
		mv.Close()
		if err != nil {
			t.Fatalf("hedged query %d: %v", i, err)
		}
		if len(res.Candidates) == 0 {
			t.Fatalf("hedged query %d returned no candidates", i)
		}
	}
	if got := set.Metrics().Counter(CounterHedgedReads).Load(); got == 0 {
		t.Fatal("hedged_reads_total stayed zero with a nanosecond hedge delay")
	}
}

func TestFreshestReplicaStalenessBound(t *testing.T) {
	healthy := &Replica{target: func() uint64 { return 9 }}
	healthy.applied.Store(5)
	dead := &Replica{serr: errors.New("poisoned"), target: func() uint64 { return 9 }}
	dead.applied.Store(9) // fresher, but terminal — must never be picked
	s := &Set{opts: Options{MaxStaleness: 2}, shards: make([]shardState, 1)}
	s.shards[0].replicas = []*Replica{healthy, dead}

	if rep, err := s.freshestReplica(0, 7); err != nil || rep != healthy {
		t.Fatalf("within the bound: (%v, %v), want the healthy replica", rep, err)
	}
	_, err := s.freshestReplica(0, 10)
	if !errors.Is(err, ErrReplicaLagging) || !errors.Is(err, ErrShardUnavailable) {
		t.Fatalf("past the bound err = %v, want ErrReplicaLagging and ErrShardUnavailable", err)
	}

	// MaxStaleness 0 means unbounded.
	s.opts.MaxStaleness = 0
	if rep, err := s.freshestReplica(0, 1<<40); err != nil || rep != healthy {
		t.Fatalf("unbounded: (%v, %v), want the healthy replica", rep, err)
	}

	// No live replica at all: unavailable, but not "lagging".
	s.shards[0].replicas = []*Replica{dead}
	_, err = s.freshestReplica(0, 1)
	if !errors.Is(err, ErrShardUnavailable) || errors.Is(err, ErrReplicaLagging) {
		t.Fatalf("no live replica err = %v, want bare ErrShardUnavailable", err)
	}
}

// TestShardHealthStateMachine drives a primary's breaker as the router
// builds it: DownAfter failures take it down, the cooldown admits one
// probe, a failed probe restarts the cooldown and a successful one heals.
func TestShardHealthStateMachine(t *testing.T) {
	cur := time.Unix(1000, 0)
	h := newShardHealth(2, time.Minute)
	h.Now = func() time.Time { return cur }
	allow := func() (probe, ok bool) {
		tk, ok := h.Allow()
		if ok {
			tk.End(breaker.Neutral)
		}
		return tk.Probe(), ok
	}
	fail := func() {
		tk, ok := h.Allow()
		if !ok {
			t.Fatal("failing leg refused admission")
		}
		tk.End(breaker.Failure)
	}

	if probe, ok := allow(); probe || !ok {
		t.Fatalf("healthy allow = (%v, %v), want (false, true)", probe, ok)
	}
	fail()
	if st := h.State(); st != breaker.Healthy {
		t.Fatalf("first failure: state %v, want healthy", st)
	}
	fail()
	if st := h.State(); st != breaker.Open {
		t.Fatalf("second failure with downAfter=2: state %v, want open", st)
	}
	if _, ok := h.Allow(); ok {
		t.Fatal("primary admitted during cooldown")
	}

	// Cooldown over: exactly one probe is admitted.
	cur = cur.Add(time.Minute)
	probe, ok := h.Allow()
	if !ok || !probe.Probe() {
		t.Fatalf("post-cooldown Allow = (probe %v, %v), want a probe", probe.Probe(), ok)
	}
	if _, ok := h.Allow(); ok {
		t.Fatal("second concurrent probe admitted")
	}

	// The probe fails: the cooldown clock restarts.
	probe.End(breaker.Failure)
	if _, ok := h.Allow(); ok {
		t.Fatal("primary admitted right after a failed probe")
	}
	cur = cur.Add(time.Minute)
	probe, ok = h.Allow()
	if !ok || !probe.Probe() {
		t.Fatal("no probe after the restarted cooldown")
	}
	probe.End(breaker.Success)
	if st := h.State(); st != breaker.Healthy {
		t.Fatalf("after a successful probe: state %v, want healthy", st)
	}
	if probe, ok := allow(); probe || !ok {
		t.Fatalf("healed allow = (%v, %v), want (false, true)", probe, ok)
	}
}

// TestReplicaPoisonedTailStopsCleanly: a corrupt record in the shipping
// stream kills the tail loop with a sticky error; the replica keeps
// serving reads at its last applied version and reports its lag, and the
// failover path (freshestReplica) refuses it.
func TestReplicaPoisonedTailStopsCleanly(t *testing.T) {
	ds, err := dsks.GeneratePreset(dsks.PresetSYN, 1000, 42)
	if err != nil {
		t.Fatal(err)
	}
	walDir := t.TempDir()
	// The replica needs a base of its own: the primary keeps (and
	// mutates) the collection it is given.
	same, err := dsks.GeneratePreset(dsks.PresetSYN, 1000, 42)
	if err != nil {
		t.Fatal(err)
	}
	base := same.Objects
	primary, err := dsks.Open(ds.Graph, ds.Objects, ds.VocabSize,
		dsks.Options{Index: dsks.IndexSIF, WALDir: walDir})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()

	ws, err := dsks.GenerateWorkload(base, ds.VocabSize, dsks.WorkloadConfig{
		NumQueries: 5, Keywords: 2, Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range ws {
		if _, err := primary.Insert(w.Pos, w.Terms); err != nil {
			t.Fatal(err)
		}
	}

	// Poison the shipping stream: flip a byte inside the first record.
	segs, err := filepath.Glob(filepath.Join(walDir, "wal-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no WAL segments in %s: %v", walDir, err)
	}
	blob, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	blob[12] ^= 0x40
	if err := os.WriteFile(segs[0], blob, 0o644); err != nil {
		t.Fatal(err)
	}

	rdb, err := dsks.Open(ds.Graph, base, ds.VocabSize, dsks.Options{Index: dsks.IndexSIF})
	if err != nil {
		t.Fatal(err)
	}
	tail, err := primary.TailWAL(rdb.LSN())
	if err != nil {
		t.Fatal(err)
	}
	rep := newReplica(0, 0, rdb, tail, primary.DurableLSN,
		Backoff{Base: time.Millisecond, Cap: 4 * time.Millisecond, Seed: 1}, func() {})
	rep.start()
	defer rep.Close()

	deadline := time.Now().Add(5 * time.Second)
	for rep.Err() == nil {
		if time.Now().After(deadline) {
			t.Fatal("replica never surfaced the corrupt tail")
		}
		time.Sleep(time.Millisecond)
	}
	if !errors.Is(rep.Err(), wal.ErrCorrupt) {
		t.Fatalf("replica error = %v, want wal.ErrCorrupt", rep.Err())
	}
	if got := rep.AppliedLSN(); got != 0 {
		t.Fatalf("poisoned replica applied LSN %d, want 0", got)
	}
	if lag := rep.Lag(); lag != uint64(len(ws)) {
		t.Fatalf("poisoned replica lag = %d, want %d", lag, len(ws))
	}

	// Still serving at its last good version.
	v, err := rep.View(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.Query(context.Background(), wideQuery(t, ds)); err != nil {
		t.Fatalf("poisoned replica stopped serving: %v", err)
	}
	v.Close()
}

func TestOpenRejectsReplicasWithoutWAL(t *testing.T) {
	ds, err := dsks.GeneratePreset(dsks.PresetSYN, 1000, 42)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Open(ds.Graph, ds.Objects, ds.VocabSize, 2,
		Options{DB: dsks.Options{Index: dsks.IndexSIF}, Replicas: 1})
	if !errors.Is(err, dsks.ErrBadOptions) {
		t.Fatalf("Open with replicas but no WAL = %v, want ErrBadOptions", err)
	}
}

func TestSetSaveReopenWithReplicas(t *testing.T) {
	set, ds := replicatedSet(t, 2, 1, Options{Seed: 3})
	ctx := context.Background()
	q := wideQuery(t, ds)
	insertStorm(t, set, ds, 20)

	dir := t.TempDir()
	if err := set.SaveTo(dir); err != nil {
		t.Fatal(err)
	}
	if err := set.Close(); err != nil {
		t.Fatal(err)
	}

	reopened, err := OpenSetPath(dir, Options{
		DB:       dsks.Options{Index: dsks.IndexSIF, WALDir: t.TempDir()},
		Replicas: 1, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = reopened.Close() }()
	insertStorm(t, reopened, ds, 15)
	waitReplicasConverged(t, reopened)

	for i := range reopened.shards {
		pv, err := reopened.shards[i].db.View(ctx)
		if err != nil {
			t.Fatal(err)
		}
		want, err := pv.Query(ctx, q)
		pv.Close()
		if err != nil {
			t.Fatal(err)
		}
		rv, err := reopened.shards[i].replicas[0].View(ctx)
		if err != nil {
			t.Fatal(err)
		}
		got, err := rv.Query(ctx, q)
		rv.Close()
		if err != nil {
			t.Fatal(err)
		}
		requireSameCandidates(t, "reopened replica", want.Candidates, got.Candidates)
	}
}
