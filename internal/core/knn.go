package core

import (
	"context"
	"fmt"
	"math"

	"dsks/internal/ccam"
	"dsks/internal/graph"
	"dsks/internal/index"
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
	if err := finite("position offset", q.Pos.Offset); err != nil {
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

// SKQuery is the boolean search kNN runs: the query's terms normalized,
// and the radius MaxDist, or unbounded but finite when MaxDist is 0.
func (q KNNQuery) SKQuery() SKQuery {
	bound := q.MaxDist
	if bound == 0 {
		bound = math.MaxFloat64
	}
	return expansionQuery(q.Pos, q.Terms, bound)
}

// SearchKNN runs the incremental expansion of Algorithm 3 and stops as
// soon as k qualifying objects have been emitted (TakeArrivals) or the
// network is exhausted. The stats and the stage timings cover the work
// done on the error path too; Trace.Total is left for the caller, which
// owns the end-to-end clock.
func SearchKNN(ctx context.Context, net ccam.Network, loader index.Loader, q KNNQuery) ([]Candidate, SearchStats, Trace, error) {
	if err := q.Validate(); err != nil {
		return nil, SearchStats{}, Trace{}, err
	}
	sks, err := NewSKSearch(ctx, net, loader, q.SKQuery())
	if err != nil {
		return nil, SearchStats{}, Trace{}, err
	}
	out, err := TakeArrivals(sks, q.K)
	sks.Stop()
	return out, sks.Stats(), sks.Trace(), err
}
