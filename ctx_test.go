package dsks_test

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"dsks"
)

// poolLogicalReads sums the logical page reads across every buffer pool.
func poolLogicalReads(db *dsks.DB) int64 {
	var n int64
	for _, p := range db.Snapshot().Pools {
		n += p.LogicalReads
	}
	return n
}

// TestPreCanceledQueries: a context canceled before the query starts must
// fail with ErrCanceled before touching any buffer pool.
func TestPreCanceledQueries(t *testing.T) {
	db, vocab, origin, _ := buildTinyCity(t)
	terms, err := vocab.LookupAll([]string{"pizza"})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	skq := dsks.SKQuery{Pos: origin, Terms: terms, DeltaMax: 500}
	queries := map[string]func() error{
		"search": func() error { _, err := db.Query(ctx, skq); return err },
		"diversified": func() error {
			_, err := db.Query(ctx, dsks.DivQuery{SKQuery: skq, K: 2, Lambda: 0.5})
			return err
		},
		"knn": func() error {
			_, err := db.Query(ctx, dsks.KNNQuery{Pos: origin, Terms: terms, K: 2})
			return err
		},
		"ranked": func() error {
			_, err := db.Query(ctx, dsks.RankedQuery{
				Pos: origin, Terms: terms, K: 2, Alpha: 0.5, DeltaMax: 500,
			})
			return err
		},
		"collective": func() error {
			_, err := db.Query(ctx, dsks.CollectiveQuery{
				Pos: origin, Terms: terms, DeltaMax: 500,
			})
			return err
		},
	}
	for name, run := range queries {
		before := poolLogicalReads(db)
		err := run()
		if !errors.Is(err, dsks.ErrCanceled) {
			t.Errorf("%s: err = %v, want ErrCanceled", name, err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v does not unwrap to context.Canceled", name, err)
		}
		if after := poolLogicalReads(db); after != before {
			t.Errorf("%s: pre-canceled query read %d pages", name, after-before)
		}
	}

	// The cancellations are visible in the metrics.
	snap := db.Snapshot()
	var canceled int64
	for _, q := range snap.Queries {
		canceled += q.Canceled
	}
	if canceled != int64(len(queries)) {
		t.Errorf("metrics counted %d canceled queries, want %d", canceled, len(queries))
	}
}

// TestDeadlineExceededMidExpansion: with a synthetic per-miss I/O latency,
// a deadline far below the query's I/O budget must abort the expansion
// with ErrDeadlineExceeded.
func TestDeadlineExceededMidExpansion(t *testing.T) {
	ds, err := dsks.GeneratePreset(dsks.PresetSYN, 2000, 7)
	if err != nil {
		t.Fatal(err)
	}
	db, err := dsks.OpenDataset(ds, dsks.Options{
		Index:     dsks.IndexSIF,
		IOLatency: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.ResetIO(); err != nil {
		t.Fatal(err)
	}
	anchor := ds.Objects.Get(0)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	// An unbounded range forces the expansion over the whole network:
	// hundreds of cold page misses at 1ms each, far past the 5ms deadline.
	_, err = db.Query(ctx, dsks.SKQuery{
		Pos: anchor.Pos, Terms: anchor.Terms[:1], DeltaMax: 1e9,
	})
	if !errors.Is(err, dsks.ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want ErrDeadlineExceeded", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v does not unwrap to context.DeadlineExceeded", err)
	}
	// The query must have started before being cut off.
	if reads := poolLogicalReads(db); reads == 0 {
		t.Error("deadline fired before any page read; expected a mid-expansion abort")
	}
}

// TestStreamStopThenNext: after Stop, Next must keep reporting a clean end
// of stream.
func TestStreamStopThenNext(t *testing.T) {
	db, vocab, origin, _ := buildTinyCity(t)
	terms, err := vocab.LookupAll([]string{"pizza"})
	if err != nil {
		t.Fatal(err)
	}
	s, err := db.Stream(context.Background(), dsks.SKQuery{Pos: origin, Terms: terms, DeltaMax: 500})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.Next(); err != nil || !ok {
		t.Fatalf("first Next: ok=%v err=%v", ok, err)
	}
	s.Stop()
	for i := 0; i < 3; i++ {
		c, ok, err := s.Next()
		if ok || err != nil {
			t.Fatalf("Next after Stop: (%+v, %v, %v), want clean end", c, ok, err)
		}
	}
	// The stream recorded exactly one metrics sample.
	if n := db.Snapshot().Queries[dsks.KindStream].Count; n != 1 {
		t.Errorf("stream samples = %d, want 1", n)
	}
}

// TestStreamCtxCanceled: canceling the stream's context makes the next
// pull fail with ErrCanceled.
func TestStreamCtxCanceled(t *testing.T) {
	db, vocab, origin, _ := buildTinyCity(t)
	terms, err := vocab.LookupAll([]string{"pizza"})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s, err := db.Stream(ctx, dsks.SKQuery{Pos: origin, Terms: terms, DeltaMax: 500})
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	if _, _, err := s.Next(); !errors.Is(err, dsks.ErrCanceled) {
		t.Fatalf("Next after cancel: err = %v, want ErrCanceled", err)
	}
	snap := db.Snapshot().Queries[dsks.KindStream]
	if snap.Count != 1 || snap.Canceled != 1 {
		t.Errorf("stream metrics = %+v, want one canceled sample", snap)
	}
}

// TestMetricsMatchGroundTruth: the registry's per-kind aggregates must
// equal the sums of the per-query stats the public API returns.
func TestMetricsMatchGroundTruth(t *testing.T) {
	db, vocab, origin, _ := buildTinyCity(t)
	terms, err := vocab.LookupAll([]string{"pizza"})
	if err != nil {
		t.Fatal(err)
	}
	skq := dsks.SKQuery{Pos: origin, Terms: terms, DeltaMax: 500}

	type truth struct {
		count, nodes, edges, cands, reads int64
	}
	want := map[dsks.QueryKind]*truth{}
	add := func(kind dsks.QueryKind, res dsks.Result) {
		tr := want[kind]
		if tr == nil {
			tr = &truth{}
			want[kind] = tr
		}
		tr.count++
		tr.nodes += res.Stats.NodesPopped
		tr.edges += res.Stats.EdgesVisited
		tr.cands += res.Stats.Candidates
		tr.reads += res.DiskReads
	}

	for i := 0; i < 3; i++ {
		res, err := db.Query(context.Background(), skq)
		if err != nil {
			t.Fatal(err)
		}
		add(dsks.KindSearch, res)
	}
	div, err := db.Query(context.Background(), dsks.DivQuery{SKQuery: skq, K: 2, Lambda: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	add(dsks.KindDiversified, div)
	knn, err := db.Query(context.Background(), dsks.KNNQuery{Pos: origin, Terms: terms, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	add(dsks.KindKNN, knn)
	rk, err := db.Query(context.Background(), dsks.RankedQuery{Pos: origin, Terms: terms, K: 2, Alpha: 0.5, DeltaMax: 500})
	if err != nil {
		t.Fatal(err)
	}
	add(dsks.KindRanked, rk)
	cl, err := db.Query(context.Background(), dsks.CollectiveQuery{Pos: origin, Terms: terms, DeltaMax: 500})
	if err != nil {
		t.Fatal(err)
	}
	add(dsks.KindCollective, cl)

	snap := db.Snapshot()
	for kind, tr := range want {
		q := snap.Queries[kind]
		if q.Count != tr.count {
			t.Errorf("%s: count %d, want %d", kind, q.Count, tr.count)
		}
		if q.NodesPopped != tr.nodes || q.EdgesVisited != tr.edges || q.Candidates != tr.cands {
			t.Errorf("%s: counters (%d,%d,%d), want (%d,%d,%d)", kind,
				q.NodesPopped, q.EdgesVisited, q.Candidates, tr.nodes, tr.edges, tr.cands)
		}
		if q.DiskReads != tr.reads {
			t.Errorf("%s: disk reads %d, want %d", kind, q.DiskReads, tr.reads)
		}
		if q.Errors != 0 || q.Canceled != 0 {
			t.Errorf("%s: unexpected errors in %+v", kind, q)
		}
	}

	// Reset clears the aggregates.
	db.Metrics().Reset()
	if n := db.Snapshot().TotalQueries(); n != 0 {
		t.Errorf("after Reset, TotalQueries = %d", n)
	}
}

// TestMetricsConcurrent hammers one DB from several goroutines; with
// -race this validates the lock-free recording path end to end.
func TestMetricsConcurrent(t *testing.T) {
	db, vocab, origin, _ := buildTinyCity(t)
	terms, err := vocab.LookupAll([]string{"pizza"})
	if err != nil {
		t.Fatal(err)
	}
	skq := dsks.SKQuery{Pos: origin, Terms: terms, DeltaMax: 500}
	const workers = 4
	const perWorker = 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if _, err := db.Query(context.Background(), skq); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	q := db.Snapshot().Queries[dsks.KindSearch]
	if q.Count != workers*perWorker {
		t.Errorf("count = %d, want %d", q.Count, workers*perWorker)
	}
	if q.Latency.Count != q.Count {
		t.Errorf("latency samples %d != count %d", q.Latency.Count, q.Count)
	}
}

// TestTraceHook: the installed hook sees every query's stage timings.
func TestTraceHook(t *testing.T) {
	db, vocab, origin, _ := buildTinyCity(t)
	terms, err := vocab.LookupAll([]string{"pizza"})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	seen := map[dsks.QueryKind]dsks.Trace{}
	db.SetTraceHook(func(kind dsks.QueryKind, trace dsks.Trace) {
		mu.Lock()
		seen[kind] = trace
		mu.Unlock()
	})
	skq := dsks.SKQuery{Pos: origin, Terms: terms, DeltaMax: 500}
	if _, err := db.Query(context.Background(), skq); err != nil {
		t.Fatal(err)
	}
	div, err := db.Query(context.Background(), dsks.DivQuery{SKQuery: skq, K: 2, Lambda: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if tr, ok := seen[dsks.KindSearch]; !ok || tr.Total <= 0 {
		t.Errorf("search trace = %+v, ok=%v", seen[dsks.KindSearch], ok)
	}
	tr, ok := seen[dsks.KindDiversified]
	if !ok || tr.Total <= 0 {
		t.Fatalf("diversified trace missing (%+v)", seen)
	}
	if tr != div.Trace {
		t.Errorf("hook trace %+v != result trace %+v", tr, div.Trace)
	}

	// Uninstall: no further calls.
	db.SetTraceHook(nil)
	before := len(seen)
	if _, err := db.Query(context.Background(), skq); err != nil {
		t.Fatal(err)
	}
	if len(seen) != before {
		t.Error("hook called after uninstall")
	}
}

// TestOpenBadOptions: invalid options are rejected with ErrBadOptions.
func TestOpenBadOptions(t *testing.T) {
	g := dsks.NewGraph()
	a := g.AddNode(dsks.Point{X: 0, Y: 0})
	b := g.AddNode(dsks.Point{X: 50, Y: 0})
	e, err := g.AddEdge(a, b, 50)
	if err != nil {
		t.Fatal(err)
	}
	g.Freeze()
	vocab := dsks.NewVocabulary()
	objects := dsks.NewCollection()
	objects.Add(dsks.Position{Edge: e, Offset: 25}, vocab.InternAll([]string{"x"}))

	bad := []dsks.Options{
		{BufferFraction: -0.5},
		{BufferFraction: math.NaN()},
		{BufferFraction: math.Inf(1)},
		{IOLatency: -time.Millisecond},
		{PartitionCuts: -1},
		{Index: "btree-of-doom"},
	}
	for _, opts := range bad {
		if _, err := dsks.Open(g, objects, vocab.Size(), opts); !errors.Is(err, dsks.ErrBadOptions) {
			t.Errorf("Open(%+v) err = %v, want ErrBadOptions", opts, err)
		}
	}
	if _, err := dsks.Open(nil, objects, vocab.Size(), dsks.Options{}); !errors.Is(err, dsks.ErrBadOptions) {
		t.Errorf("Open(nil graph) err = %v, want ErrBadOptions", err)
	}
}

// TestTypedErrors: the mutation paths report sentinel errors usable with
// errors.Is.
func TestTypedErrors(t *testing.T) {
	db, vocab, _, edges := buildTinyCity(t)
	terms, err := vocab.LookupAll([]string{"pizza"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Insert(dsks.Position{Edge: 999, Offset: 0}, terms); !errors.Is(err, dsks.ErrUnknownEdge) {
		t.Errorf("insert on bad edge: err = %v, want ErrUnknownEdge", err)
	}
	if _, err := db.Insert(dsks.Position{Edge: edges[0], Offset: 10}, []dsks.TermID{9999}); !errors.Is(err, dsks.ErrTermOutOfRange) {
		t.Errorf("insert with bad term: err = %v, want ErrTermOutOfRange", err)
	}
	if err := db.Remove(dsks.ObjectID(12345)); !errors.Is(err, dsks.ErrUnknownObject) {
		t.Errorf("remove unknown object: err = %v, want ErrUnknownObject", err)
	}
	// A route and a distance name the same sentinel for an edge outside
	// the network.
	on := dsks.Position{Edge: edges[0], Offset: 0}
	if _, err := db.ShortestRoute(on, dsks.Position{Edge: 999, Offset: 0}); !errors.Is(err, dsks.ErrUnknownEdge) {
		t.Errorf("route to a bad edge: err = %v, want ErrUnknownEdge", err)
	}
	if _, err := db.NetworkDistance(context.Background(), dsks.Position{Edge: 999, Offset: 0}, on); !errors.Is(err, dsks.ErrUnknownEdge) {
		t.Errorf("distance from a bad edge: err = %v, want ErrUnknownEdge", err)
	}

	// The query paths classify the same violations instead of letting the
	// index structures hit them unguarded (a term beyond the vocabulary
	// used to panic inside the SIF signature test).
	badEdge := dsks.SKQuery{Pos: dsks.Position{Edge: 999, Offset: 0}, Terms: terms, DeltaMax: 100}
	if _, err := db.Query(context.Background(), badEdge); !errors.Is(err, dsks.ErrUnknownEdge) {
		t.Errorf("search on bad edge: err = %v, want ErrUnknownEdge", err)
	}
	badTerm := dsks.SKQuery{Pos: dsks.Position{Edge: edges[0], Offset: 0}, Terms: []dsks.TermID{9999}, DeltaMax: 100}
	if _, err := db.Query(context.Background(), badTerm); !errors.Is(err, dsks.ErrTermOutOfRange) {
		t.Errorf("search with bad term: err = %v, want ErrTermOutOfRange", err)
	}
	if _, err := db.Query(context.Background(), dsks.DivQuery{SKQuery: badTerm, K: 2, Lambda: 0.5}); !errors.Is(err, dsks.ErrTermOutOfRange) {
		t.Errorf("diversified search with bad term: err = %v, want ErrTermOutOfRange", err)
	}
	if _, err := db.Query(context.Background(), dsks.KNNQuery{Pos: badTerm.Pos, Terms: badTerm.Terms, K: 2}); !errors.Is(err, dsks.ErrTermOutOfRange) {
		t.Errorf("kNN search with bad term: err = %v, want ErrTermOutOfRange", err)
	}
	if _, err := db.Query(context.Background(), dsks.RankedQuery{Pos: badTerm.Pos, Terms: badTerm.Terms, K: 2, Alpha: 0.5, DeltaMax: 100}); !errors.Is(err, dsks.ErrTermOutOfRange) {
		t.Errorf("ranked search with bad term: err = %v, want ErrTermOutOfRange", err)
	}
	if _, err := db.Query(context.Background(), dsks.CollectiveQuery{Pos: badTerm.Pos, Terms: badTerm.Terms, DeltaMax: 100}); !errors.Is(err, dsks.ErrTermOutOfRange) {
		t.Errorf("collective search with bad term: err = %v, want ErrTermOutOfRange", err)
	}
	if _, err := db.Stream(context.Background(), badTerm); !errors.Is(err, dsks.ErrTermOutOfRange) {
		t.Errorf("stream with bad term: err = %v, want ErrTermOutOfRange", err)
	}
}

// TestInsertClampRegression: inserting with an out-of-range offset must
// clamp consistently — the query result's distance has to agree with the
// exact network distance to the object's stored position.
func TestInsertClampRegression(t *testing.T) {
	g := dsks.NewGraph()
	a := g.AddNode(dsks.Point{X: 0, Y: 0})
	b := g.AddNode(dsks.Point{X: 100, Y: 0})
	e, err := g.AddEdge(a, b, 100)
	if err != nil {
		t.Fatal(err)
	}
	g.Freeze()
	vocab := dsks.NewVocabulary()
	objects := dsks.NewCollection()
	objects.Add(dsks.Position{Edge: e, Offset: 10}, vocab.InternAll([]string{"seed"}))
	clampTerms := vocab.InternAll([]string{"clamped"})
	db, err := dsks.Open(g, objects, vocab.Size(), dsks.Options{})
	if err != nil {
		t.Fatal(err)
	}
	origin := dsks.Position{Edge: e, Offset: 0}

	// Offset 250 on a 100-long edge: clamped to the far end.
	id, err := db.Insert(dsks.Position{Edge: e, Offset: 250}, clampTerms)
	if err != nil {
		t.Fatal(err)
	}
	terms, err := vocab.LookupAll([]string{"clamped"})
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(context.Background(), dsks.SKQuery{Pos: origin, Terms: terms, DeltaMax: 1e6})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Candidates) != 1 {
		t.Fatalf("got %d candidates, want the inserted object", len(res.Candidates))
	}
	c := res.Candidates[0]
	if c.Ref.ID != id {
		t.Fatalf("found object %d, want %d", c.Ref.ID, id)
	}
	if got := c.Ref.Pos().Offset; got < 0 || got > 100 {
		t.Errorf("stored offset %v not clamped to the edge", got)
	}
	exact, err := db.NetworkDistance(context.Background(), origin, c.Ref.Pos())
	if diff := c.Dist - exact; err != nil || diff > 1e-9 || diff < -1e-9 {
		t.Errorf("query distance %v != exact network distance %v", c.Dist, exact)
	}
}
