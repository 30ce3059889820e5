package shard

import (
	"context"
	"errors"
	"sync"
	"testing"

	"dsks"
	"dsks/internal/engine"
	"dsks/internal/fault"
)

func testSet(t *testing.T, n int, opts Options) (*Set, *dsks.Dataset) {
	t.Helper()
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

// setFaults arms a fault campaign on every page store and the WAL of db.
func setFaults(t testing.TB, db *dsks.DB, cfg fault.Config) {
	t.Helper()
	in, err := fault.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	db.SetInjector(in)
}

// clearFaults disarms fault injection on every shard's primary.
func clearFaults(set *Set) {
	for i := 0; i < set.Shards(); i++ {
		set.DB(i).SetInjector(nil)
	}
}

// checkNoPins fails t, once the test and its deferred calls are done,
// when a read view is still pinned on any database behind b (a Set's
// primaries and replicas, or one DB): a MultiView, a replica leg or a
// losing race side that never closed what it opened.
func checkNoPins(t testing.TB, b interface{ PinnedViews() int }) {
	t.Helper()
	t.Cleanup(func() {
		if n := b.PinnedViews(); n != 0 {
			t.Errorf("%d read views still pinned when the test ended", n)
		}
	})
}

// wideQuery builds a query whose δmax ball spans every shard so the
// fan-out has legs to fail.
func wideQuery(t *testing.T, ds *dsks.Dataset) dsks.SKQuery {
	t.Helper()
	ws, err := dsks.GenerateWorkload(ds.Objects, ds.VocabSize, dsks.WorkloadConfig{
		NumQueries: 1, Keywords: 1, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	return dsks.SKQuery{Pos: ws[0].Pos, Terms: ws[0].Terms, DeltaMax: 20000}
}

func TestFanoutFirstErrorWins(t *testing.T) {
	set, ds := testSet(t, 4, Options{DB: dsks.Options{Index: dsks.IndexSIF}})
	q := wideQuery(t, ds)
	ctx := context.Background()

	mv, err := set.View(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer mv.Close()
	if _, err := mv.Query(ctx, q); err != nil {
		t.Fatalf("healthy fan-out: %v", err)
	}
	if m := mv.Meta(); len(m.Queried) != 4 || m.Partial {
		t.Fatalf("healthy meta = %+v, want 4 full legs", m)
	}
	// The router's snapshot folds in what the four legs' page memos held.
	c := set.Snapshot().Counters
	if c[engine.CounterPagesQueries] != 4 || c[engine.GaugePagesHeldMax] < 1 ||
		c[engine.CounterPagesHeld] < c[engine.GaugePagesHeldMax] {
		t.Fatalf("page-memo figures after one four-leg query: %d queries, %d pages held, %d at most",
			c[engine.CounterPagesQueries], c[engine.CounterPagesHeld], c[engine.GaugePagesHeldMax])
	}

	// Take one shard down: permanent read faults on shard 2 only.
	if err := set.ResetIO(); err != nil {
		t.Fatal(err)
	}
	setFaults(t, set.DB(2), fault.Config{Op: fault.OpRead, EveryN: 1})
	defer clearFaults(set)
	mv2, err := set.View(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer mv2.Close()
	_, err = mv2.Query(ctx, q)
	if !errors.Is(err, ErrShardDown) {
		t.Fatalf("degraded fan-out err = %v, want ErrShardDown", err)
	}
	if errors.Is(err, ErrPartialResult) {
		t.Fatal("first-error-wins policy produced a partial result")
	}

	// Recovery: clearing the faults restores full answers.
	clearFaults(set)
	if err := set.ResetIO(); err != nil {
		t.Fatal(err)
	}
	mv3, err := set.View(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer mv3.Close()
	if _, err := mv3.Query(ctx, q); err != nil {
		t.Fatalf("recovered fan-out: %v", err)
	}
}

func TestFanoutPartialResultPolicy(t *testing.T) {
	set, ds := testSet(t, 4, Options{DB: dsks.Options{Index: dsks.IndexSIF}, Partial: true})
	q := wideQuery(t, ds)
	ctx := context.Background()

	// Baseline: full answer, remember the candidate count.
	mv, err := set.View(ctx)
	if err != nil {
		t.Fatal(err)
	}
	full, err := mv.Query(ctx, q)
	mv.Close()
	if err != nil {
		t.Fatal(err)
	}

	if err := set.ResetIO(); err != nil {
		t.Fatal(err)
	}
	setFaults(t, set.DB(1), fault.Config{Op: fault.OpRead, EveryN: 1})
	defer clearFaults(set)

	mv2, err := set.View(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer mv2.Close()
	res, err := mv2.Query(ctx, q)
	if !errors.Is(err, ErrPartialResult) {
		t.Fatalf("partial policy err = %v, want ErrPartialResult", err)
	}
	if !errors.Is(err, ErrShardDown) {
		t.Fatal("partial error should still classify the failed leg as shard-down")
	}
	m := mv2.Meta()
	if !m.Partial || len(m.Errors) != 1 || m.Errors[0].Shard != 1 {
		t.Fatalf("partial meta = %+v, want shard 1 failed", m)
	}
	if len(res.Candidates) >= len(full.Candidates) {
		t.Fatalf("partial result has %d candidates, full had %d — nothing was actually missing",
			len(res.Candidates), len(full.Candidates))
	}
	// The survivors must be a subset of the full answer (coherent, never
	// half-merged garbage).
	fullIDs := map[dsks.ObjectID]bool{}
	for _, c := range full.Candidates {
		fullIDs[c.Ref.ID] = true
	}
	for _, c := range res.Candidates {
		if !fullIDs[c.Ref.ID] {
			t.Fatalf("partial result contains object %d the full answer lacks", c.Ref.ID)
		}
	}
	if set.Metrics().Counter(CounterPartial).Load() == 0 {
		t.Error("partial counter stayed zero")
	}
}

// TestFanoutClientErrorsFailWhole: a bad query is the client's fault on
// every leg — both policies reject it outright, with the same sentinel
// the unsharded engine uses.
func TestFanoutClientErrorsFailWhole(t *testing.T) {
	for _, partial := range []bool{false, true} {
		set, ds := testSet(t, 2, Options{DB: dsks.Options{Index: dsks.IndexSIF}, Partial: partial})
		ctx := context.Background()
		mv, err := set.View(ctx)
		if err != nil {
			t.Fatal(err)
		}
		q := wideQuery(t, ds)
		q.Pos.Edge = dsks.EdgeID(ds.Graph.NumEdges() + 5)
		if _, err := mv.Query(ctx, q); !errors.Is(err, dsks.ErrUnknownEdge) {
			t.Fatalf("partial=%v: unknown edge err = %v", partial, err)
		}
		q2 := wideQuery(t, ds)
		q2.Terms = []dsks.TermID{dsks.TermID(ds.VocabSize + 3)}
		if _, err := mv.Query(ctx, q2); !errors.Is(err, dsks.ErrTermOutOfRange) {
			t.Fatalf("partial=%v: bad term err = %v", partial, err)
		}
		if _, err := mv.Query(ctx, dsks.SKQuery{Pos: wideQuery(t, ds).Pos, DeltaMax: 100}); err == nil ||
			errors.Is(err, ErrPartialResult) {
			t.Fatalf("partial=%v: empty terms err = %v", partial, err)
		}
		canceled, cancel := context.WithCancel(ctx)
		cancel()
		if _, err := mv.Query(canceled, wideQuery(t, ds)); !errors.Is(err, dsks.ErrCanceled) {
			t.Fatalf("partial=%v: canceled ctx err = %v", partial, err)
		}
		mv.Close()
		if _, err := mv.Query(ctx, wideQuery(t, ds)); !errors.Is(err, dsks.ErrViewClosed) {
			t.Fatalf("partial=%v: closed view err = %v", partial, err)
		}
		_ = set.Close()
	}
}

// TestFanoutPanicIsolation: a leg whose stream panics maps to ErrShardDown
// and the MultiView (and all sibling views) still closes cleanly.
func TestFanoutPanicIsolation(t *testing.T) {
	set, ds := testSet(t, 4, Options{DB: dsks.Options{Index: dsks.IndexSIF}})
	ctx := context.Background()
	mv, err := set.View(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer mv.Close()
	targets := []int{0, 1, 2, 3}
	q := wideQuery(t, ds)
	cursors := mv.cursors(ctx, targets, q)
	cursors[2].open = func(*dsks.View, context.Context, dsks.SKQuery) (*dsks.Stream, error) {
		panic("leg exploded")
	}
	_, _, err = mv.merge(ctx, targets, cursors, q)
	if !errors.Is(err, ErrShardDown) {
		t.Fatalf("panicked leg err = %v, want ErrShardDown", err)
	}
	// The views remain owned and closable; queries still work after the
	// panic (nothing was torn down behind the view's back).
	if _, err := mv.views[0].Query(ctx, dsks.SKQuery{Pos: dsks.Position{Edge: 0}, Terms: []dsks.TermID{0}, DeltaMax: 10}); err != nil {
		t.Fatalf("sibling view broken after panic: %v", err)
	}
}

// TestShardConcurrentMutationsAndQueries drives inserts and sharded
// queries concurrently: no candidate may ever surface with an unmapped
// (negative) global ID — the insert protocol publishes the mapping
// before the object becomes visible.
func TestShardConcurrentMutationsAndQueries(t *testing.T) {
	set, ds := testSet(t, 4, Options{DB: dsks.Options{Index: dsks.IndexSIF}})
	ctx := context.Background()
	q := wideQuery(t, ds)

	ws, err := dsks.GenerateWorkload(ds.Objects, ds.VocabSize, dsks.WorkloadConfig{
		NumQueries: 120, Keywords: 1, Seed: 5,
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
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				mv, err := set.View(ctx)
				if err != nil {
					t.Error(err)
					return
				}
				res, err := mv.Query(ctx, q)
				mv.Close()
				if err != nil {
					t.Error(err)
					return
				}
				for _, c := range res.Candidates {
					if c.Ref.ID < 0 {
						t.Errorf("candidate surfaced with unmapped ID %d", c.Ref.ID)
						return
					}
				}
			}
		}()
	}
	wg.Wait()

	if got := set.Seq(); got != uint64(len(ws)) {
		t.Fatalf("mutation clock = %d after %d inserts", got, len(ws))
	}
}

func TestSetSaveAndReopen(t *testing.T) {
	set, ds := testSet(t, 3, Options{DB: dsks.Options{Index: dsks.IndexSIF}})
	ctx := context.Background()
	q := wideQuery(t, ds)

	mv, err := set.View(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want, err := mv.Query(ctx, q)
	mv.Close()
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	if err := set.SaveTo(dir); err != nil {
		t.Fatal(err)
	}
	reopened, err := OpenSetPath(dir, Options{DB: dsks.Options{Index: dsks.IndexSIF}})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = reopened.Close() }()
	if reopened.Shards() != 3 || reopened.LiveObjects() != set.LiveObjects() {
		t.Fatalf("reopened set: %d shards, %d objects (want %d, %d)",
			reopened.Shards(), reopened.LiveObjects(), 3, set.LiveObjects())
	}
	mv2, err := reopened.View(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer mv2.Close()
	got, err := mv2.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	requireSameCandidates(t, "reopened", want.Candidates, got.Candidates)
}

// TestOpenSetPathWithoutManifest: a directory with no set manifest is
// not a sharded snapshot.
func TestOpenSetPathWithoutManifest(t *testing.T) {
	if _, err := OpenSetPath(t.TempDir(), Options{}); !errors.Is(err, ErrBadManifest) {
		t.Fatalf("OpenSetPath on an empty directory: %v, want ErrBadManifest", err)
	}
}

// TestShardGroupCommitUnderConcurrentInserters is the router's twin of
// the database's group-commit test: concurrent inserts into one shard
// share its WAL's fsyncs, which they can only do if the router's insert
// latch is released before the durability wait.
func TestShardGroupCommitUnderConcurrentInserters(t *testing.T) {
	set, _ := testSet(t, 2, Options{DB: dsks.Options{Index: dsks.IndexSIF, WALDir: t.TempDir()}})
	var edges []dsks.EdgeID
	for e, owner := range set.Partition().Owner {
		if owner == 0 {
			edges = append(edges, dsks.EdgeID(e))
		}
	}
	const writers, per = 8, 20
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				pos := dsks.Position{Edge: edges[(w*per+i)%len(edges)], Offset: 0.5}
				if _, _, err := set.Insert(pos, []dsks.TermID{0}); err != nil {
					t.Errorf("concurrent insert: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	counters := set.DB(0).Snapshot().Counters
	synced, fsyncs := counters["wal_synced_records_total"], counters["wal_fsyncs_total"]
	if synced != writers*per {
		t.Fatalf("shard 0 synced %d records, want %d", synced, writers*per)
	}
	if fsyncs == 0 || fsyncs >= synced {
		t.Fatalf("group commit degenerated: %d fsyncs for %d acked records", fsyncs, synced)
	}
	t.Logf("group commit: %d records over %d fsyncs", synced, fsyncs)
}

// TestConcurrentInsertsKeepTheirIDs: writers inserting at once into every
// shard of a set each get an ID of their own, the IDs run densely past
// the input collection, and after a reopen over the WALs every acked ID
// answers for the object it was acked for — the IDs a shard takes rise in
// its commit order even while the shards commit concurrently.
func TestConcurrentInsertsKeepTheirIDs(t *testing.T) {
	const shards, writers, per = 4, 8, 12
	opts := Options{DB: dsks.Options{Index: dsks.IndexSIF, WALDir: t.TempDir()}}
	set, ds := testSet(t, shards, opts)
	var edges [shards][]dsks.EdgeID
	for e, owner := range set.Partition().Owner {
		edges[owner] = append(edges[owner], dsks.EdgeID(e))
	}
	pos := func(k int) dsks.Position {
		return dsks.Position{Edge: edges[k%shards][k/shards], Offset: 0.5}
	}
	acked := make([]dsks.ObjectID, writers*per)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				k := w*per + i
				id, _, err := set.Insert(pos(k), []dsks.TermID{0})
				if err != nil {
					t.Errorf("concurrent insert %d: %v", k, err)
					return
				}
				acked[k] = id
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	seen := make(map[dsks.ObjectID]bool, len(acked))
	for k, id := range acked {
		if seen[id] || int(id) < ds.Objects.Len() || int(id) >= ds.Objects.Len()+len(acked) {
			t.Fatalf("insert %d acked ID %d (duplicate: %v)", k, id, seen[id])
		}
		seen[id] = true
	}
	if err := set.Close(); err != nil {
		t.Fatal(err)
	}

	again, err := dsks.GeneratePreset(dsks.PresetSYN, 1000, 42)
	if err != nil {
		t.Fatal(err)
	}
	reopened, err := Open(again.Graph, again.Objects, again.VocabSize, shards, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	ctx := context.Background()
	mv, err := reopened.View(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer mv.Close()
	for k, id := range acked {
		res, err := mv.Query(ctx, dsks.SKQuery{Pos: pos(k), Terms: []dsks.TermID{0}, DeltaMax: 1e-9})
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, c := range res.Candidates {
			found = found || (c.Ref.ID == id && c.Ref.Pos() == pos(k))
		}
		if !found {
			t.Fatalf("acked object %d of insert %d does not answer at %+v after the reopen: %v", id, k, pos(k), res.Candidates)
		}
	}
}

// TestPoisonedShardWALReopens: a shard whose log failed a sync refuses
// its inserts while the other shards keep acknowledging theirs; closing
// the set reports the sticky sync error, and a set reopened on the same
// log directory has every acknowledged insert live again.
func TestPoisonedShardWALReopens(t *testing.T) {
	walDir := t.TempDir()
	open := func() *Set {
		ds, err := dsks.GeneratePreset(dsks.PresetSYN, 1000, 42)
		if err != nil {
			t.Fatal(err)
		}
		set, err := Open(ds.Graph, ds.Objects, ds.VocabSize, 4,
			Options{DB: dsks.Options{Index: dsks.IndexSIF, WALDir: walDir}})
		if err != nil {
			t.Fatal(err)
		}
		return set
	}
	set := open()
	t.Cleanup(func() { _ = set.Close() }) // a second Close is a no-op

	// Three edges per shard, each insert tagged with its own term.
	var edges [4][]dsks.EdgeID
	for e, owner := range set.Partition().Owner {
		if len(edges[owner]) < 3 {
			edges[owner] = append(edges[owner], dsks.EdgeID(e))
		}
	}
	type ack struct {
		shard int
		id    dsks.ObjectID
		pos   dsks.Position
		term  dsks.TermID
	}
	var acked []ack
	insert := func(si int, e dsks.EdgeID) error {
		pos, term := dsks.Position{Edge: e, Offset: 0.5}, dsks.TermID(len(acked)%set.VocabSize())
		id, _, err := set.Insert(pos, []dsks.TermID{term})
		if err == nil {
			acked = append(acked, ack{si, id, pos, term})
		}
		return err
	}
	for si := range edges {
		if err := insert(si, edges[si][0]); err != nil {
			t.Fatalf("healthy insert on shard %d: %v", si, err)
		}
	}

	setFaults(t, set.DB(1), fault.Config{Op: fault.OpSync, EveryN: 1})
	for si := range edges {
		for _, e := range edges[si][1:] {
			err := insert(si, e)
			switch {
			case si == 1 && !errors.Is(err, ErrShardDown):
				t.Fatalf("insert on the poisoned shard: %v, want ErrShardDown", err)
			case si != 1 && err != nil:
				t.Fatalf("insert on healthy shard %d: %v", si, err)
			}
		}
	}
	if err := set.Close(); err == nil {
		t.Fatal("closing a set with a poisoned log reported no error")
	}

	reopened := open()
	defer func() { _ = reopened.Close() }()
	ctx := context.Background()
	for _, a := range acked {
		v, err := reopened.DB(a.shard).View(ctx)
		if err != nil {
			t.Fatal(err)
		}
		res, err := v.Query(ctx, dsks.SKQuery{Pos: a.pos, Terms: []dsks.TermID{a.term}, DeltaMax: 1e-9})
		v.Close()
		if err != nil {
			t.Fatalf("acked insert %+v: %v", a, err)
		}
		found := false
		for _, c := range res.Candidates {
			found = found || (c.Ref.ID == a.id && c.Ref.Pos() == a.pos)
		}
		if !found {
			t.Fatalf("acked insert %+v missing from its position's answer %v", a, res.Candidates)
		}
	}
	if len(acked) != 4+3*2 {
		t.Fatalf("%d inserts acked, want one per shard and two more on each healthy shard", len(acked))
	}
}
