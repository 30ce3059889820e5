package engine

import (
	"context"
	"errors"
	"time"

	"dsks/internal/core"
	"dsks/internal/index"
	"dsks/internal/metrics"
	"dsks/internal/storage"
)

// Result is a query outcome with its cost metrics (core.Result).
type Result = core.Result

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

// Run executes q against the index at the given snapshot: the one run
// path of every query family, core.Run inside the query's accounting
// window. ctx cancels or deadline-bounds the query (core.ErrCanceled /
// core.ErrDeadlineExceeded). Every family runs over the oracle-attached
// network; only the diversified ones compute pair distances on it.
func (e *Engine) Run(ctx context.Context, at Snapshot, q core.Query) (Result, error) {
	s, loader := e.begin(q.Kind(), at)
	return s.end(core.Run(ctx, e.SearchNet, loader, q))
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

// Stream starts an incremental search at the given snapshot: boolean, or
// with or set the objects containing at least one query term, with
// Stream.Terms reporting which — the index must then provide union (OR)
// loads. Its page memo lives as long as the stream. release, when non-nil,
// runs once when the stream finishes (the database closes a stream-owned
// view there).
func (e *Engine) Stream(ctx context.Context, at Snapshot, q core.SKQuery, or bool, release func()) (*Stream, error) {
	s, loader := e.begin(metrics.KindStream, at)
	search, err := core.Open(ctx, e.File, loader, q, or)
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
// contains, as positions in the query's terms (an OR stream; a boolean
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
