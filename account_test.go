package dsks_test

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"dsks"
)

// querier is the query surface DB and View share, signature for signature.
type querier interface {
	Query(context.Context, dsks.Query) (dsks.Result, error)
	Stream(context.Context, dsks.SKQuery) (*dsks.Stream, error)
}

var _, _ querier = (*dsks.DB)(nil), (*dsks.View)(nil)

// accountCase is one query family of the accounting table. A stream has no
// Result of its own: its run drains it and reports the stream's stats and
// stage timings, leaving the envelope (Elapsed, DiskReads, Total) zero.
type accountCase struct {
	kind   dsks.QueryKind
	stream bool
	run    func(ctx context.Context, q querier) (dsks.Result, error)
}

func accountCases(w dsks.WorkloadQuery, k int, deltaMax float64) []accountCase {
	skq := dsks.SKQuery{Pos: w.Pos, Terms: w.Terms, DeltaMax: deltaMax}
	return []accountCase{
		{kind: dsks.KindSearch, run: func(ctx context.Context, q querier) (dsks.Result, error) {
			return q.Query(ctx, skq)
		}},
		{kind: dsks.KindDiversified, run: func(ctx context.Context, q querier) (dsks.Result, error) {
			return q.Query(ctx, dsks.DivQuery{SKQuery: skq, K: k, Lambda: 0.8})
		}},
		{kind: dsks.KindKNN, run: func(ctx context.Context, q querier) (dsks.Result, error) {
			return q.Query(ctx, dsks.KNNQuery{Pos: w.Pos, Terms: w.Terms, K: k, MaxDist: deltaMax})
		}},
		{kind: dsks.KindRanked, run: func(ctx context.Context, q querier) (dsks.Result, error) {
			return q.Query(ctx, dsks.RankedQuery{Pos: w.Pos, Terms: w.Terms, K: k, Alpha: 0.5, DeltaMax: deltaMax})
		}},
		{kind: dsks.KindCollective, run: func(ctx context.Context, q querier) (dsks.Result, error) {
			return q.Query(ctx, dsks.CollectiveQuery{Pos: w.Pos, Terms: w.Terms, DeltaMax: deltaMax})
		}},
		{kind: dsks.KindStream, stream: true, run: func(ctx context.Context, q querier) (dsks.Result, error) {
			s, err := q.Stream(ctx, skq)
			if err != nil {
				return dsks.Result{}, err
			}
			var res dsks.Result
			for {
				c, ok, err := s.Next()
				if err != nil {
					return dsks.Result{}, err
				}
				if !ok {
					res.Stats, res.Trace = s.Stats(), s.Trace()
					return res, nil
				}
				res.Candidates = append(res.Candidates, c)
			}
		}},
	}
}

// unheldTerm returns a vocabulary term no object of ds holds.
func unheldTerm(t *testing.T, ds *dsks.Dataset) dsks.TermID {
	t.Helper()
	held := make([]bool, ds.VocabSize)
	for id := 0; id < ds.Objects.Len(); id++ {
		for _, term := range ds.Objects.Get(dsks.ObjectID(id)).Terms {
			held[term] = true
		}
	}
	for term, h := range held {
		if !h {
			return dsks.TermID(term)
		}
	}
	t.Fatal("every vocabulary term is held by some object")
	return 0
}

// expiringCtx is a deadline without a clock: its Err reports
// context.DeadlineExceeded from the n-th poll on. The expansion polls
// between steps and before every page read, so the deadline lands
// mid-expansion after the same amount of work on every machine.
type expiringCtx struct {
	context.Context
	polls atomic.Int64
}

func expireAfter(polls int64) *expiringCtx {
	c := &expiringCtx{Context: context.Background()}
	c.polls.Store(polls)
	return c
}

func (c *expiringCtx) Err() error {
	if c.polls.Add(-1) < 0 {
		return context.DeadlineExceeded
	}
	return nil
}

// hookLog records what the trace hook saw.
type hookLog struct {
	mu     sync.Mutex
	kinds  []dsks.QueryKind
	traces []dsks.Trace
}

func (h *hookLog) hook(kind dsks.QueryKind, trace dsks.Trace) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.kinds = append(h.kinds, kind)
	h.traces = append(h.traces, trace)
}

func (h *hookLog) reset() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.kinds, h.traces = nil, nil
}

// TestQueryAccounting pins the one run path: every query family and the
// stream, on DB and on View alike, leaves exactly one metrics sample and
// one trace-hook call that agree with the returned envelope; a deadline
// mid-expansion is recorded as canceled with the work done so far; and a
// closed view records nothing.
func TestQueryAccounting(t *testing.T) {
	ds, err := dsks.GeneratePreset(dsks.PresetSYN, 2000, 7)
	if err != nil {
		t.Fatal(err)
	}
	db, err := dsks.OpenDataset(ds, dsks.Options{Index: dsks.IndexSIF})
	if err != nil {
		t.Fatal(err)
	}
	ws, err := dsks.GenerateWorkload(ds.Objects, ds.VocabSize, dsks.WorkloadConfig{
		NumQueries: 1, Keywords: 1, DeltaMaxPerKeyword: 1500, Seed: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	var seen hookLog
	db.SetTraceHook(seen.hook)
	view, err := db.View(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer view.Close()
	targets := []struct {
		name string
		q    querier
	}{{"DB", db}, {"View", view}}

	fresh := func() {
		t.Helper()
		seen.reset()
		db.Metrics().Reset()
		if err := db.ResetIO(); err != nil {
			t.Fatal(err)
		}
	}
	// onlySample returns kind's aggregate after checking it is the single
	// sample in the registry.
	onlySample := func(tag string, kind dsks.QueryKind) dsks.QuerySnapshot {
		t.Helper()
		snap := db.Snapshot()
		if n := snap.TotalQueries(); n != 1 || snap.Queries[kind].Count != 1 {
			t.Fatalf("%s: %d samples in total, %d of kind %s; want exactly one of that kind",
				tag, n, snap.Queries[kind].Count, kind)
		}
		return snap.Queries[kind]
	}

	for _, target := range targets {
		for _, c := range accountCases(ws[0], 4, ws[0].DeltaMax) {
			tag := target.name + "/" + string(c.kind)
			fresh()
			res, err := c.run(context.Background(), target.q)
			if err != nil {
				t.Fatalf("%s: %v", tag, err)
			}
			sample := onlySample(tag, c.kind)
			if sample.Errors != 0 || sample.Canceled != 0 {
				t.Errorf("%s: sample %+v counts an error", tag, sample)
			}
			if sample.NodesPopped != res.Stats.NodesPopped || sample.Candidates != res.Stats.Candidates {
				t.Errorf("%s: sample work (%d nodes, %d candidates) != result stats (%d, %d)", tag,
					sample.NodesPopped, sample.Candidates, res.Stats.NodesPopped, res.Stats.Candidates)
			}
			if len(seen.traces) != 1 || seen.kinds[0] != c.kind {
				t.Fatalf("%s: hook calls = %v, want one of kind %s", tag, seen.kinds, c.kind)
			}
			tr := seen.traces[0]
			if c.stream {
				// The stream reports its stages; the envelope exists only
				// in the sample and the hook's trace.
				res.Trace.Total, res.Elapsed, res.DiskReads = tr.Total, tr.Total, sample.DiskReads
			}
			if tr != res.Trace {
				t.Errorf("%s: hook trace %+v != result trace %+v", tag, tr, res.Trace)
			}
			if sample.DiskReads != res.DiskReads || res.DiskReads == 0 {
				t.Errorf("%s: sample disk reads %d, result %d; want equal and cold-start positive",
					tag, sample.DiskReads, res.DiskReads)
			}
			if tr.Total != res.Elapsed || tr.Expansion+tr.PostingReads+tr.Diversify > tr.Total {
				t.Errorf("%s: stages %+v do not fit in Total == Elapsed == %v", tag, tr, res.Elapsed)
			}
			if tr.Expansion <= 0 {
				t.Errorf("%s: no expansion time in %+v", tag, tr)
			}
		}
	}

	// A deadline that lands mid-expansion: an unbounded range and a k no
	// query can fill force the expansion over the whole network, far past
	// the context's budget of polls. The collective query stops once its
	// group is final, so its query gets a term no object holds: its cover
	// never completes.
	deadlineCases := accountCases(ws[0], ds.Objects.Len(), 1e9)
	uncoverable := ws[0]
	uncoverable.Terms = append(uncoverable.Terms[:len(uncoverable.Terms):len(uncoverable.Terms)], unheldTerm(t, ds))
	for i, c := range accountCases(uncoverable, ds.Objects.Len(), 1e9) {
		if c.kind == dsks.KindCollective {
			deadlineCases[i] = c
		}
	}
	for _, target := range targets {
		for _, c := range deadlineCases {
			tag := target.name + "/" + string(c.kind) + "/deadline"
			fresh()
			_, err := c.run(expireAfter(200), target.q)
			if !errors.Is(err, dsks.ErrDeadlineExceeded) {
				t.Fatalf("%s: err = %v, want ErrDeadlineExceeded", tag, err)
			}
			sample := onlySample(tag, c.kind)
			if sample.Errors != 1 || sample.Canceled != 1 {
				t.Errorf("%s: sample %+v, want one canceled error", tag, sample)
			}
			if sample.NodesPopped == 0 {
				t.Errorf("%s: canceled sample records no work: %+v", tag, sample)
			}
			if len(seen.traces) != 0 {
				t.Errorf("%s: hook saw a failed query: %v", tag, seen.kinds)
			}
		}
	}

	// A closed view fails every family up front and records nothing.
	closed, err := db.View(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	closed.Close()
	fresh()
	for _, c := range accountCases(ws[0], 4, ws[0].DeltaMax) {
		if _, err := c.run(context.Background(), closed); !errors.Is(err, dsks.ErrViewClosed) {
			t.Errorf("closed view/%s: err = %v, want ErrViewClosed", c.kind, err)
		}
	}
	if n := db.Snapshot().TotalQueries(); n != 0 || len(seen.traces) != 0 {
		t.Errorf("closed view recorded %d samples and %d hook calls", n, len(seen.traces))
	}
}
