package dsks_test

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"dsks"
)

// viewTestDB builds the small synthetic graph shared by the view tests:
// every third edge carries one object tagged with term 0 plus one other
// term, so a term-0 range query with a huge radius enumerates exactly
// the seeded objects.
func viewTestDB(t *testing.T, opts dsks.Options) *dsks.DB {
	t.Helper()
	g, err := dsks.GenerateNetwork(dsks.NetworkConfig{Nodes: 30, EdgeFactor: 1.5, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	col := dsks.NewCollection()
	const vocab = 8
	for e := 0; e < g.NumEdges(); e += 3 {
		col.Add(dsks.Position{Edge: dsks.EdgeID(e), Offset: 1},
			[]dsks.TermID{0, dsks.TermID(1 + e%(vocab-1))})
	}
	db, err := dsks.Open(g, col, vocab, opts)
	if err != nil {
		t.Fatal(err)
	}
	dsks.CheckNoPins(t, db)
	return db
}

var viewTestQuery = dsks.SKQuery{
	Pos: dsks.Position{Edge: 0, Offset: 0}, Terms: []dsks.TermID{0}, DeltaMax: 1e9,
}

// TestViewSnapshotIsolation pins a view, mutates the database, and
// checks that the pinned view keeps answering from its commit point
// while a freshly opened view sees the mutation.
func TestViewSnapshotIsolation(t *testing.T) {
	db := viewTestDB(t, dsks.Options{Index: dsks.IndexSIF})
	ctx := context.Background()

	old, err := db.View(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer old.Close()
	base, err := old.Query(ctx, viewTestQuery)
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Candidates) == 0 {
		t.Fatal("seed query returned no candidates")
	}
	oldLSN, oldLive := old.LSN(), old.LiveObjects()

	id, err := db.Insert(dsks.Position{Edge: 1, Offset: 0.5}, []dsks.TermID{0, 1})
	if err != nil {
		t.Fatal(err)
	}

	// The pinned view is frozen at its LSN: same live count, same result.
	if got := old.LSN(); got != oldLSN {
		t.Fatalf("pinned view LSN moved: %d -> %d", oldLSN, got)
	}
	if got := old.LiveObjects(); got != oldLive {
		t.Fatalf("pinned view LiveObjects moved: %d -> %d", oldLive, got)
	}
	again, err := old.Query(ctx, viewTestQuery)
	if err != nil {
		t.Fatal(err)
	}
	if len(again.Candidates) != len(base.Candidates) {
		t.Fatalf("pinned view saw the insert: %d candidates, want %d",
			len(again.Candidates), len(base.Candidates))
	}

	// A view opened after the commit sees it.
	fresh, err := db.View(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if fresh.LSN() <= oldLSN {
		t.Fatalf("fresh view LSN = %d, want > %d", fresh.LSN(), oldLSN)
	}
	if got, want := fresh.LiveObjects(), oldLive+1; got != want {
		t.Fatalf("fresh view LiveObjects = %d, want %d", got, want)
	}
	after, err := fresh.Query(ctx, viewTestQuery)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(after.Candidates), len(base.Candidates)+1; got != want {
		t.Fatalf("fresh view candidates = %d, want %d", got, want)
	}

	// Remove restores the old cardinality for yet another view, while
	// the fresh view stays pinned at its own commit point.
	if err := db.Remove(id); err != nil {
		t.Fatal(err)
	}
	if got, want := fresh.LiveObjects(), oldLive+1; got != want {
		t.Fatalf("fresh view LiveObjects after Remove = %d, want %d", got, want)
	}
	last, err := db.View(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer last.Close()
	if got := last.LiveObjects(); got != oldLive {
		t.Fatalf("post-remove view LiveObjects = %d, want %d", got, oldLive)
	}
}

// TestViewClosedErrors checks the lifecycle contract: Close is
// idempotent and every query on a closed view fails with ErrViewClosed.
func TestViewClosedErrors(t *testing.T) {
	db := viewTestDB(t, dsks.Options{Index: dsks.IndexIF})
	ctx := context.Background()

	v, err := db.View(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.Query(ctx, viewTestQuery); err != nil {
		t.Fatal(err)
	}
	v.Close()
	v.Close() // idempotent

	if _, err := v.Query(ctx, viewTestQuery); !errors.Is(err, dsks.ErrViewClosed) {
		t.Fatalf("Query(SKQuery) on closed view: err = %v, want ErrViewClosed", err)
	}
	dq := dsks.DivQuery{SKQuery: viewTestQuery, K: 2, Lambda: 0.5}
	if _, err := v.Query(ctx, dq); !errors.Is(err, dsks.ErrViewClosed) {
		t.Fatalf("Query(DivQuery) on closed view: err = %v, want ErrViewClosed", err)
	}
	if _, err := v.Stream(ctx, viewTestQuery); !errors.Is(err, dsks.ErrViewClosed) {
		t.Fatalf("Stream on closed view: err = %v, want ErrViewClosed", err)
	}
	if _, err := v.NetworkDistance(ctx, viewTestQuery.Pos, viewTestQuery.Pos); !errors.Is(err, dsks.ErrViewClosed) {
		t.Fatalf("NetworkDistance on closed view: err = %v, want ErrViewClosed", err)
	}
}

// TestViewCloseDeterministic closes one view from many goroutines at
// once and checks the lifecycle stays deterministic: the pin is
// released exactly once (the race detector would flag a double-unpin),
// every query family — including the ranked, kNN, and collective
// ones not covered above — fails with ErrViewClosed
// afterwards, and the database remains fully usable.
func TestViewCloseDeterministic(t *testing.T) {
	db := viewTestDB(t, dsks.Options{Index: dsks.IndexIF})
	ctx := context.Background()

	v, err := db.View(ctx)
	if err != nil {
		t.Fatal(err)
	}

	knn := dsks.KNNQuery{Pos: viewTestQuery.Pos, Terms: []dsks.TermID{0}, K: 2, MaxDist: 1e9}
	ranked := dsks.RankedQuery{Pos: viewTestQuery.Pos, Terms: []dsks.TermID{0}, K: 2, Alpha: 0.5, DeltaMax: 1e9}
	coll := dsks.CollectiveQuery{Pos: viewTestQuery.Pos, Terms: []dsks.TermID{0, 1}, DeltaMax: 1e9}
	dq := dsks.DivQuery{SKQuery: viewTestQuery, K: 2, Lambda: 0.5}

	// Each family works on the open view, so a post-close failure below
	// can only come from the closed check, not the query itself.
	families := []dsks.Query{knn, ranked, coll, dq}
	for _, q := range families {
		if _, err := v.Query(ctx, q); err != nil {
			t.Fatalf("Query(%T) on open view: %v", q, err)
		}
	}

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v.Close()
		}()
	}
	wg.Wait()

	for _, q := range families {
		if _, err := v.Query(ctx, q); !errors.Is(err, dsks.ErrViewClosed) {
			t.Fatalf("Query(%T) on closed view: err = %v, want ErrViewClosed", q, err)
		}
	}

	// The racing Close calls released the single pin without corrupting
	// the epoch table: mutations still commit and a fresh view observes
	// them at a later LSN.
	id, err := db.Insert(dsks.Position{Edge: 1, Offset: 0}, []dsks.TermID{0, 3})
	if err != nil {
		t.Fatal(err)
	}
	after, err := db.View(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer after.Close()
	if after.LSN() <= v.LSN() {
		t.Fatalf("post-close view LSN = %d, want > %d", after.LSN(), v.LSN())
	}
	if err := db.Remove(id); err != nil {
		t.Fatal(err)
	}
}

// TestReaderStarvation runs a mutation storm against concurrent view
// readers and proves each result is consistent with exactly one
// published LSN. The protocol: the single mutator holds a test-side
// mutex across each Insert and its acknowledgement, so any reader that
// opens a view under the same mutex knows precisely how many inserts
// have committed — and therefore exactly how many term-0 objects its
// snapshot must contain. A view whose root set mixed two commits, or
// that observed a commit its LSN predates, fails the count check.
func TestReaderStarvation(t *testing.T) {
	db := viewTestDB(t, dsks.Options{Index: dsks.IndexSIF})
	ctx := context.Background()

	seed, err := db.View(ctx)
	if err != nil {
		t.Fatal(err)
	}
	base, err := seed.Query(ctx, viewTestQuery)
	if err != nil {
		t.Fatal(err)
	}
	seed.Close()
	seedCount := len(base.Candidates)
	if seedCount == 0 {
		t.Fatal("seed query returned no candidates; the race would be vacuous")
	}

	const (
		readers    = 4
		iterations = 25
		inserts    = 40
	)
	var (
		ackMu   sync.Mutex
		acked   int    // inserts committed and acknowledged
		ackLSN  uint64 // db LSN at the last acknowledgement
		wg      sync.WaitGroup
		errs    = make(chan error, readers+1)
		failMu  sync.Mutex
		failure string
	)
	ackLSN = db.LSN()

	fail := func(msg string) {
		failMu.Lock()
		if failure == "" {
			failure = msg
		}
		failMu.Unlock()
	}

	wg.Add(1)
	go func() { // the storm: term-0 inserts, each acknowledged under ackMu
		defer wg.Done()
		for i := 0; i < inserts; i++ {
			ackMu.Lock()
			_, err := db.Insert(dsks.Position{Edge: dsks.EdgeID(1 + i%5), Offset: 0.5},
				[]dsks.TermID{0, dsks.TermID(1 + i%7)})
			if err != nil {
				ackMu.Unlock()
				errs <- err
				return
			}
			acked++
			ackLSN = db.LSN()
			ackMu.Unlock()
		}
	}()

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iterations; i++ {
				// Open the view while no insert can be in flight: the
				// snapshot must hold exactly seedCount+acked term-0
				// objects at exactly ackLSN.
				ackMu.Lock()
				v, err := db.View(ctx)
				want := seedCount + acked
				wantLSN := ackLSN
				ackMu.Unlock()
				if err != nil {
					errs <- err
					return
				}
				if got := v.LSN(); got != wantLSN {
					fail(fmt.Sprintf("view LSN %d != acknowledged LSN %d", got, wantLSN))
				}
				// The query itself runs latch-free, racing later inserts;
				// its answer must still match the pinned commit point.
				res, err := v.Query(ctx, viewTestQuery)
				if err != nil {
					v.Close()
					errs <- err
					return
				}
				if len(res.Candidates) != want {
					fail(fmt.Sprintf("view@%d returned %d candidates, want %d",
						v.LSN(), len(res.Candidates), want))
				}
				v.Close()
			}
		}()
	}

	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if failure != "" {
		t.Fatal(failure)
	}
	if got, want := db.LiveObjects(), seedCount+inserts; got != want {
		t.Fatalf("LiveObjects after the storm = %d, want %d", got, want)
	}
}

// TestViewPinnedAcrossSaveAndCheckpoint races view-pinned readers
// against SaveTo (snapshot + WAL checkpoint, which folds old page
// versions) and a mutator. A view opened before the churn must keep
// answering from its original commit point for its whole lifetime —
// the epoch pin has to hold the fold horizon back until it closes.
func TestViewPinnedAcrossSaveAndCheckpoint(t *testing.T) {
	tmp := t.TempDir()
	db := viewTestDB(t, dsks.Options{Index: dsks.IndexSIF, WALDir: filepath.Join(tmp, "wal")})
	ctx := context.Background()
	snapDir := filepath.Join(tmp, "snap")

	pinned, err := db.View(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer pinned.Close()
	base, err := pinned.Query(ctx, viewTestQuery)
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Candidates) == 0 {
		t.Fatal("seed query returned no candidates")
	}
	pinLSN, pinLive := pinned.LSN(), pinned.LiveObjects()

	const iterations = 10
	var wg sync.WaitGroup
	errs := make(chan error, 3)
	wg.Add(1)
	go func() { // mutator: net +1 object per iteration
		defer wg.Done()
		for i := 0; i < iterations; i++ {
			id, err := db.Insert(dsks.Position{Edge: dsks.EdgeID(1 + i%5), Offset: 0.5},
				[]dsks.TermID{0, 1})
			if err != nil {
				errs <- err
				return
			}
			if i%2 == 1 {
				if err := db.Remove(id); err != nil {
					errs <- err
					return
				}
			}
		}
	}()
	wg.Add(1)
	go func() { // saver: snapshot + checkpoint folds page versions
		defer wg.Done()
		for i := 0; i < iterations/2; i++ {
			if err := db.SaveTo(snapDir); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Add(1)
	go func() { // short-lived views racing the fold horizon
		defer wg.Done()
		for i := 0; i < iterations; i++ {
			v, err := db.View(ctx)
			if err != nil {
				errs <- err
				return
			}
			if _, err := v.Query(ctx, viewTestQuery); err != nil {
				v.Close()
				errs <- err
				return
			}
			v.Close()
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	// The long-lived pin survived every save and checkpoint untouched.
	if got := pinned.LSN(); got != pinLSN {
		t.Fatalf("pinned LSN after churn = %d, want %d", got, pinLSN)
	}
	if got := pinned.LiveObjects(); got != pinLive {
		t.Fatalf("pinned LiveObjects after churn = %d, want %d", got, pinLive)
	}
	res, err := pinned.Query(ctx, viewTestQuery)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Candidates) != len(base.Candidates) {
		t.Fatalf("pinned view after churn: %d candidates, want %d",
			len(res.Candidates), len(base.Candidates))
	}
	// And once it closes, reclamation may proceed and the present state
	// is what a fresh view reports.
	pinned.Close()
	now, err := db.View(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer now.Close()
	if got, want := now.LiveObjects(), pinLive+(iterations+1)/2; got != want {
		t.Fatalf("fresh view LiveObjects = %d, want %d", got, want)
	}
}
