package core

import (
	"context"
	"fmt"
	"math"

	"dsks/internal/ccam"
	"dsks/internal/graph"
	"dsks/internal/metrics"
	"dsks/internal/obj"
)

// KNNQuery is the k-nearest-neighbor variant of the boolean spatial
// keyword query: the k closest objects (by network distance) containing
// every query keyword, without a fixed range. MaxDist optionally caps the
// expansion (0 = unbounded); the related-work section of the paper calls
// this the boolean kNN spatial keyword search.
type KNNQuery struct {
	Pos     graph.Position
	Terms   []obj.TermID
	K       int
	MaxDist float64
}

// Validate checks the query's well-formedness.
func (q KNNQuery) Validate() error {
	if len(q.Terms) == 0 {
		return fmt.Errorf("core: kNN query needs at least one keyword")
	}
	if q.K < 1 {
		return fmt.Errorf("core: kNN query needs k >= 1, got %d", q.K)
	}
	if err := CheckOffset(q.Pos); err != nil {
		return err
	}
	if err := finite("MaxDist", q.MaxDist); err != nil {
		return err
	}
	if q.MaxDist < 0 {
		return fmt.Errorf("core: negative MaxDist %v", q.MaxDist)
	}
	return nil
}

// Expansion is the boolean search kNN runs: the query's terms normalized,
// and the radius MaxDist, or unbounded but finite when MaxDist is 0.
func (q KNNQuery) Expansion() (SKQuery, bool) {
	bound := q.MaxDist
	if bound == 0 {
		bound = math.MaxFloat64
	}
	return expansionQuery(q.Pos, q.Terms, bound), false
}

// Kind is metrics.KindKNN.
func (KNNQuery) Kind() metrics.QueryKind { return metrics.KindKNN }

// Answer takes src's first k arrivals: because arrivals come in
// non-decreasing distance, they are exactly the k nearest.
func (q KNNQuery) Answer(_ context.Context, src ArrivalSource, _ ccam.Network, res *Result) (err error) {
	res.Candidates, err = takeArrivals(src, q.K)
	return err
}
