package dsks

import (
	"context"
	"errors"
	"sync/atomic"

	"dsks/internal/core"
	"dsks/internal/engine"
)

// ErrViewClosed reports a query on a View after Close.
var ErrViewClosed = errors.New("dsks: view closed")

// dbRoots is one published version of the database: the commit LSN that
// produced it, the live-object count, and the index root set. A published
// dbRoots (and everything it points to) is immutable; mutators build a new
// one from copies and install it with a single atomic pointer swap.
type dbRoots struct {
	lsn  uint64
	live int
	idx  *engine.Roots // the object index's root set
}

// View is a consistent read-only snapshot of the database, pinned at the
// commit LSN current when it was opened. Every query method — Query,
// Stream, StreamAny, NetworkDistance — runs entirely against that snapshot,
// latch-free: concurrent Insert/Remove calls publish new versions without
// ever blocking the view's queries, and none of their effects are visible
// through it. Multiple queries on one view observe the same LSN, giving
// multi-query consistency (e.g. paginating with repeated searches, or
// caching results keyed on LSN).
//
// A View is safe for concurrent use. Close releases the pin; the storage
// layer reclaims superseded page versions only once the last view pinning
// them closes, so forgetting Close leaks version-overlay memory (but never
// corrupts anything). Queries on a closed view fail with ErrViewClosed.
type View struct {
	db    *DB
	roots *dbRoots
	// at is what a query on this view reads: the root snapshot and a page
	// view pinned at its LSN. The engine binds a reader with its own page
	// memo to it per query, so a long-lived or shared view holds no query
	// state.
	at     engine.Snapshot
	closed atomic.Bool
}

// View opens a read view pinned at the current commit LSN. It never blocks
// on the writer: the root set is loaded with an atomic pointer read and
// pinned in the epoch registry (retrying only in the rare race where the
// loaded version was reclaimed between load and pin). Because opening
// never blocks, the context is not consulted here; it is accepted so call
// sites thread one uniformly, and every query on the view honors its own
// context (a view opened under an already-canceled context opens fine and
// fails at the first query, with the cancellation recorded in metrics).
//
// The caller must Close the view when done with it.
func (db *DB) View(ctx context.Context) (*View, error) {
	_ = ctx
	var r *dbRoots
	for {
		r = db.roots.Load()
		if db.epochs.Pin(r.lsn) {
			break
		}
		// The loaded root set was folded away before we pinned it; the
		// current one is always pinnable, so reload and retry.
	}
	return &View{db: db, roots: r, at: engine.Snapshot{Roots: r.idx, Pages: db.eng.Pool.ViewAt(r.lsn)}}, nil
}

// Close releases the view's pin on its LSN. Idempotent; after the first
// call every query method fails with ErrViewClosed. Closing the last view
// pinned at an old LSN lets the storage layer fold superseded page
// versions back into the base file.
func (v *View) Close() {
	if v.closed.Swap(true) {
		return
	}
	v.db.epochs.Unpin(v.roots.lsn)
	v.db.reclaim()
}

// LSN returns the commit LSN the view is pinned at: the WAL LSN of the
// last mutation visible through it (databases without a WAL count
// mutations on the same clock). Two views with equal LSNs observe
// identical data.
func (v *View) LSN() uint64 { return v.roots.lsn }

// LiveObjects returns the number of live objects visible in this view.
func (v *View) LiveObjects() int { return v.roots.live }

// HoldsTerm reports whether some object visible in this view contains
// term t: the view's inverted file has a posting for it. It is exact at
// the view's LSN, so a remove of a term's last holder clears it; a term
// outside the vocabulary is held by nothing.
func (v *View) HoldsTerm(t TermID) bool {
	n := v.roots.idx.Inv.TermPostings
	return t >= 0 && int(t) < len(n) && n[t] > 0
}

// guard checks that the view is open and that pos and terms are on the
// network and in the vocabulary.
func (v *View) guard(pos Position, terms []TermID) error {
	if v.closed.Load() {
		return ErrViewClosed
	}
	return engine.CheckPosTerms(v.db.eng.Graph, v.db.eng.VocabSize, "query", pos, terms)
}

// Query runs q against the view's snapshot. q is one of the five query
// families — SKQuery (every object within DeltaMax that contains every
// keyword, in non-decreasing distance), DivQuery (the paper's diversified
// query, Algorithm 6), KNNQuery, RankedQuery or CollectiveQuery — and the
// Result's payload is that family's. q is validated first, then the view
// and the expansion's position and terms are checked, in the order
// shard.MultiView.Query checks them; a nil q, or a nil pointer to a
// family, is an error.
func (v *View) Query(ctx context.Context, q Query) (Result, error) {
	if err := core.Check(q); err != nil {
		return Result{}, err
	}
	skq, _ := q.Expansion()
	if err := v.guard(skq.Pos, skq.Terms); err != nil {
		return Result{}, err
	}
	return v.db.eng.Run(ctx, v.at, q)
}

// SearchDiversified is Query for a DivQuery. It is kept only because the
// frozen benchmark (bench/trace.go) calls it; it goes when the benchmark
// moves to Query.
func (v *View) SearchDiversified(ctx context.Context, q DivQuery) (Result, error) {
	return v.Query(ctx, q)
}

// Stream starts an incremental boolean search against the view's snapshot.
// The view must stay open for the stream's lifetime (the stream reads the
// view's pinned pages); a stream obtained from DB.Stream instead owns a
// private view and releases it itself.
func (v *View) Stream(ctx context.Context, q SKQuery) (*Stream, error) {
	return v.stream(ctx, q, false, nil)
}

// StreamAny starts an incremental OR search against the view's snapshot:
// the objects containing at least one of q.Terms, in non-decreasing network
// distance, with Stream.Terms reporting which terms each contains — the
// arrivals the ranked and collective queries consume.
func (v *View) StreamAny(ctx context.Context, q SKQuery) (*Stream, error) {
	return v.stream(ctx, q, true, nil)
}

// stream is Stream and StreamAny with the hook a stream-owned view is
// released through.
func (v *View) stream(ctx context.Context, q SKQuery, or bool, release func()) (*Stream, error) {
	if err := v.guard(q.Pos, q.Terms); err != nil {
		return nil, err
	}
	return v.db.eng.Stream(ctx, v.at, q, or, release)
}

// NetworkDistance returns the exact network distance between two
// positions (the road network is immutable, so this is identical across
// views; it lives on View so a view-scoped caller never needs the DB).
// Unreachable pairs fail with an error matching ErrNoPath.
func (v *View) NetworkDistance(ctx context.Context, a, b Position) (float64, error) {
	if v.closed.Load() {
		return 0, ErrViewClosed
	}
	return v.db.NetworkDistance(ctx, a, b)
}
