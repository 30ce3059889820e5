package engine

import (
	"context"
	"errors"
	"fmt"
	"time"

	"dsks/internal/ccam"
	"dsks/internal/core"
	"dsks/internal/index"
	"dsks/internal/metrics"
	"dsks/internal/storage"
)

// Result is a query outcome with its cost metrics. Every query family
// fills the shared fields (Elapsed, DiskReads, Stats, Trace); the payload
// fields depend on the family: boolean, kNN and diversified searches fill
// Candidates (and F for diversified), ranked searches fill Ranked, and
// collective searches fill Collective.
type Result struct {
	// Candidates are the qualifying objects in non-decreasing network
	// distance (boolean queries) or the chosen diversified set (in pair
	// order, diversified queries).
	Candidates []core.Candidate
	// F is the diversification objective value f(S); zero for boolean
	// queries.
	F float64
	// Ranked are the scored objects of a ranked query, best first.
	Ranked []core.RankedResult
	// Collective is the keyword-covering group of a collective query.
	Collective *core.CollectiveResult
	// Elapsed is the query's wall-clock time.
	Elapsed time.Duration
	// DiskReads counts buffer-pool misses during the query.
	DiskReads int64
	// Stats are the detailed cost counters.
	Stats core.SearchStats
	// Trace is the query's stage-timing breakdown; Trace.Total equals
	// Elapsed.
	Trace core.Trace
}

// DivSearch is a diversified search algorithm over a network and an index
// loader: core.SearchCOM is the one the database serves; the experiments
// also run the paper's SEQ straw-man through the same accounting.
type DivSearch func(ctx context.Context, net ccam.Network, loader index.Loader, q core.DivQuery) (core.DivResult, error)

// Snapshot is what one query reads the object index at: a published root
// set and the page source pinned at its LSN (the database's views hand
// theirs in). The zero Snapshot is the index as built, read through the
// engine's own pool — what the experiments run against, and all there is
// for an index without versions.
type Snapshot struct {
	Roots *Roots
	Pages storage.PageReader
}

// span is one query's accounting window: the read counters and the clock
// as they stood when it began, and the query's page memo.
type span struct {
	e      *Engine
	kind   metrics.QueryKind
	before int64
	start  time.Time
	pages  *storage.PageMemo // nil for an index without versions
}

// begin opens a query's window and binds the index's query logic for this
// one query: a reader of at's roots over a fresh page memo, so every index
// page is read at most once per query however long the view lives and
// whoever else shares it. An index without versions answers through the
// loader it was built with.
func (e *Engine) begin(kind metrics.QueryKind, at Snapshot) (span, index.Loader) {
	s := span{e: e, kind: kind, before: e.DiskReads(), start: time.Now()}
	if e.Versions == nil {
		return s, e.Loader
	}
	if at.Roots == nil {
		at = Snapshot{Roots: e.built, Pages: e.Pool}
	}
	s.pages = storage.NewPageMemo(at.Pages, e.frames)
	return s, e.Versions.ReaderAt(s.pages, at.Roots)
}

// beginUnion is begin for the families that need OR-semantics loads.
func (e *Engine) beginUnion(kind metrics.QueryKind, at Snapshot) (span, index.UnionLoader, error) {
	if !e.Union() {
		return span{}, nil, fmt.Errorf("engine: index %s has no union (OR) loads", e.Kind)
	}
	s, loader := e.begin(kind, at)
	return s, loader.(index.UnionLoader), nil
}

// end is the one place a query is accounted: elapsed time and the
// disk-read delta go into the envelope, one sample (with the work done up
// to a failure, and cancellations classified) into the registry, the pages
// its memo held into the page-memo figures, and a successful query's trace
// to the hook.
func (s span) end(res Result, err error) (Result, error) {
	res.Elapsed = time.Since(s.start)
	res.DiskReads = s.e.DiskReads() - s.before
	res.Trace.Total = res.Elapsed
	s.e.Metrics.Record(s.kind, metrics.Sample{
		Elapsed:       res.Elapsed,
		Err:           err != nil,
		Canceled:      errors.Is(err, core.ErrCanceled) || errors.Is(err, core.ErrDeadlineExceeded),
		NodesPopped:   res.Stats.NodesPopped,
		EdgesVisited:  res.Stats.EdgesVisited,
		Candidates:    res.Stats.Candidates,
		Pruned:        res.Stats.Pruned,
		PairDistCalcs: res.Stats.PairDistCalcs,
		DiskReads:     res.DiskReads,
	})
	if s.pages != nil {
		s.e.pagesHeld.observe(int64(s.pages.Held()))
	}
	if err != nil {
		return Result{}, err
	}
	if h, ok := s.e.traceHook.Load().(TraceHook); ok && h != nil {
		h(s.kind, res.Trace)
	}
	return res, nil
}

// Search executes a boolean SK query (Algorithm 3) against the index at
// the given snapshot. ctx cancels or deadline-bounds every family
// (core.ErrCanceled / core.ErrDeadlineExceeded).
func (e *Engine) Search(ctx context.Context, at Snapshot, q core.SKQuery) (Result, error) {
	s, loader := e.begin(metrics.KindSearch, at)
	search, err := core.NewSKSearch(ctx, e.File, loader, q)
	if err != nil {
		return s.end(Result{}, err)
	}
	cands, err := search.All()
	return s.end(Result{Candidates: cands, Stats: search.Stats(), Trace: search.Trace()}, err)
}

// SearchDiversified executes a diversified SK query with search over the
// oracle-attached network.
func (e *Engine) SearchDiversified(ctx context.Context, at Snapshot, search DivSearch, q core.DivQuery) (Result, error) {
	s, loader := e.begin(metrics.KindDiversified, at)
	res, err := search(ctx, e.SearchNet, loader, q)
	return s.end(Result{Candidates: res.Objects, F: res.F, Stats: res.Stats, Trace: res.Trace}, err)
}

// SearchKNN executes a boolean kNN spatial keyword query.
func (e *Engine) SearchKNN(ctx context.Context, at Snapshot, q core.KNNQuery) (Result, error) {
	s, loader := e.begin(metrics.KindKNN, at)
	cands, stats, trace, err := core.SearchKNN(ctx, e.File, loader, q)
	return s.end(Result{Candidates: cands, Stats: stats, Trace: trace}, err)
}

// SearchRanked executes a top-k ranked spatial keyword query. The index
// must provide union (OR) loads (Engine.Union).
func (e *Engine) SearchRanked(ctx context.Context, at Snapshot, q core.RankedQuery) (Result, error) {
	s, loader, err := e.beginUnion(metrics.KindRanked, at)
	if err != nil {
		return Result{}, err
	}
	ranked, stats, trace, err := core.SearchRanked(ctx, e.File, loader, q)
	return s.end(Result{Ranked: ranked, Stats: stats, Trace: trace}, err)
}

// SearchCollective executes a collective (group keyword cover) query. The
// index must provide union (OR) loads (Engine.Union).
func (e *Engine) SearchCollective(ctx context.Context, at Snapshot, q core.CollectiveQuery) (Result, error) {
	s, loader, err := e.beginUnion(metrics.KindCollective, at)
	if err != nil {
		return Result{}, err
	}
	group, stats, trace, err := core.SearchCollective(ctx, e.File, loader, q)
	return s.end(Result{Collective: &group, Stats: stats, Trace: trace}, err)
}

// Stream is an incremental search: candidates are pulled one at a time in
// non-decreasing network distance, so a consumer can stop early (the
// access pattern every query family exploits). It stops with an error
// matching core.ErrCanceled or core.ErrDeadlineExceeded once its context
// ends. A stream is accounted like any other query — one sample, one
// trace — when it is exhausted, stopped or failed.
type Stream struct {
	search  *core.SKSearch
	span    span
	release func()
	done    bool
	res     Result
}

// Stream starts an incremental boolean search at the given snapshot; its
// page memo lives as long as the stream. release, when non-nil, runs once
// when the stream finishes (the database closes a stream-owned view
// there).
func (e *Engine) Stream(ctx context.Context, at Snapshot, q core.SKQuery, release func()) (*Stream, error) {
	s, loader := e.begin(metrics.KindStream, at)
	search, err := core.NewSKSearch(ctx, e.File, loader, q)
	return s.stream(search, err, release)
}

// StreamAny is Stream with OR semantics: the objects containing at least
// one query term, with Stream.Terms reporting which. The index must
// provide union (OR) loads (Engine.Union).
func (e *Engine) StreamAny(ctx context.Context, at Snapshot, q core.SKQuery, release func()) (*Stream, error) {
	s, loader, err := e.beginUnion(metrics.KindStream, at)
	if err != nil {
		return nil, err
	}
	search, err := core.NewSKSearchAny(ctx, e.File, loader, q)
	return s.stream(search, err, release)
}

// stream wraps a search begun in s, accounting a failed start at once.
func (s span) stream(search *core.SKSearch, err error, release func()) (*Stream, error) {
	if err != nil {
		_, err = s.end(Result{}, err)
		return nil, err
	}
	return &Stream{search: search, span: s, release: release}, nil
}

// Next returns the next candidate; ok is false when the stream is done.
func (s *Stream) Next() (c core.Candidate, ok bool, err error) {
	c, ok, err = s.search.Next()
	if !ok || err != nil {
		s.finish(err)
	}
	return c, ok, err
}

// Terms reports which query terms the candidate Next returned last
// contains, as positions in the query's terms (StreamAny; a boolean
// stream's candidates contain them all and report the empty set).
func (s *Stream) Terms() index.TermSet { return s.search.Terms() }

// Limit lowers the stream's radius to d: no candidate farther than d
// follows, and the expansion ends once it passes d.
func (s *Stream) Limit(d float64) { s.search.Limit(d) }

// Stop abandons the stream early.
func (s *Stream) Stop() {
	s.search.Stop()
	s.finish(nil)
}

// Stats returns the traversal counters so far.
func (s *Stream) Stats() core.SearchStats { return s.search.Stats() }

// Trace returns the stream's stage timings so far.
func (s *Stream) Trace() core.Trace { return s.search.Trace() }

// Result returns the envelope the stream was accounted with — Elapsed,
// DiskReads, Stats and Trace, no payload — so a consumer that merges
// several streams (the shard router) reports their cost as it reports any
// other leg's. It is the zero Result until the stream is exhausted or
// stopped, and stays zero for one that failed, as a failed query's is.
func (s *Stream) Result() Result { return s.res }

// finish accounts the stream exactly once and runs the release hook.
func (s *Stream) finish(err error) {
	if s.done {
		return
	}
	s.done = true
	if s.release != nil {
		s.release()
	}
	s.res, _ = s.span.end(Result{Stats: s.search.Stats(), Trace: s.search.Trace()}, err)
}
