package core

import (
	"context"
	"errors"
	"reflect"
	"time"

	"dsks/internal/ccam"
	"dsks/internal/index"
	"dsks/internal/metrics"
)

// Query is one query family, declared once: the expansion it reads and
// the answer it computes over that expansion's arrivals. A family knows
// nothing of where its arrivals come from — one node's own expansion
// (Run) or the shard router's merge of its legs' streams.
type Query interface {
	// Validate checks the query's well-formedness.
	Validate() error
	// Expansion is the search the family reads: a boolean query over
	// its position, terms and radius, and whether its loads are OR (the
	// objects containing at least one term) rather than AND.
	Expansion() (q SKQuery, or bool)
	// Kind labels the family's samples in the metrics registry.
	Kind() metrics.QueryKind
	// Answer consumes src, the arrivals of Expansion, and fills res's
	// payload together with the answer's own counters and
	// Trace.Diversify; the caller adds what its source cost. Pair
	// distances run on net. src is left to the caller to stop.
	Answer(ctx context.Context, src ArrivalSource, net ccam.Network, res *Result) error
}

// Result is a query outcome with its cost metrics. Every query family
// fills the shared fields (Elapsed, DiskReads, Stats, Trace); the payload
// fields depend on the family: boolean, kNN and diversified searches fill
// Candidates (and F for diversified), ranked searches fill Ranked, and
// collective searches fill Collective.
type Result struct {
	// Candidates are the qualifying objects in non-decreasing network
	// distance (boolean queries) or the chosen diversified set (in pair
	// order, diversified queries).
	Candidates []Candidate
	// F is the diversification objective value f(S); zero for boolean
	// queries.
	F float64
	// Ranked are the scored objects of a ranked query, best first.
	Ranked []RankedResult
	// Collective is the keyword-covering group of a collective query.
	Collective *CollectiveResult
	// Elapsed is the query's wall-clock time.
	Elapsed time.Duration
	// DiskReads counts buffer-pool misses during the query.
	DiskReads int64
	// Stats are the detailed cost counters.
	Stats SearchStats
	// Trace is the query's stage-timing breakdown; Trace.Total equals
	// Elapsed.
	Trace Trace
}

// Check is q.Validate for a q that may be nil. The families' methods take
// values, so a nil pointer to one (a *DivQuery, say) satisfies Query but
// panics in Validate; Check turns it, like a nil interface, into an error.
func Check(q Query) error {
	if v := reflect.ValueOf(q); q == nil || v.Kind() == reflect.Pointer && v.IsNil() {
		return errNilQuery
	}
	return q.Validate()
}

// errNilQuery reports a nil Query, or a nil pointer to a family.
var errNilQuery = errors.New("core: nil query")

// Run answers q on one node: it opens q's expansion over loader, runs
// q.Answer over its arrivals, and adds the expansion's counters and stage
// timings to the answer's own. The stats and the stage timings cover the
// work done on the error path too; Trace.Total is the time Run took.
func Run(ctx context.Context, net ccam.Network, loader index.Loader, q Query) (Result, error) {
	if err := q.Validate(); err != nil {
		return Result{}, err
	}
	start := time.Now()
	skq, or := q.Expansion()
	sks, err := Open(ctx, net, loader, skq, or)
	if err != nil {
		return Result{}, err
	}
	var res Result
	err = q.Answer(ctx, sks, net, &res)
	sks.Stop()
	res.Stats.Add(sks.Stats())
	res.Trace.Add(sks.Trace())
	res.Trace.Total = time.Since(start)
	return res, err
}

// Open starts the expansion of q: NewSKSearch, or with or set its OR
// variant, the stream of the ranked and collective queries — the objects
// containing at least one query term, with Terms reporting which — which
// needs a loader with OR loads (index.UnionLoader).
func Open(ctx context.Context, net ccam.Network, loader index.Loader, q SKQuery, or bool) (*SKSearch, error) {
	if !or {
		return NewSKSearch(ctx, net, loader, q)
	}
	ul, ok := loader.(index.UnionLoader)
	if !ok {
		return nil, errors.New("core: the index has no union (OR) loads")
	}
	return newSKSearch(ctx, net, q, loadAny(ctx, ul, q.Terms))
}

// SearchCOM is Run for the diversified query: Algorithm 6 over the
// node's own expansion.
func SearchCOM(ctx context.Context, net ccam.Network, loader index.Loader, q DivQuery) (Result, error) {
	return Run(ctx, net, loader, q)
}
