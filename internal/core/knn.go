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

// knnInitialCap is the capacity SearchKNN's answer starts with.
const knnInitialCap = 16

// SearchKNN runs the incremental expansion of Algorithm 3 and stops as
// soon as k qualifying objects have been emitted (or the network is
// exhausted). Because candidates arrive in non-decreasing network
// distance, the first k emissions are exactly the k nearest. The stats and
// the stage timings cover the work done on the error path too; Trace.Total
// is left for the caller, which owns the end-to-end clock.
func SearchKNN(ctx context.Context, net ccam.Network, loader index.Loader, q KNNQuery) ([]Candidate, SearchStats, Trace, error) {
	if err := q.Validate(); err != nil {
		return nil, SearchStats{}, Trace{}, err
	}
	bound := q.MaxDist
	if bound == 0 {
		// Unbounded, but finite: the expansion's SKQuery must validate.
		bound = math.MaxFloat64
	}
	sks, err := NewSKSearch(ctx, net, loader, SKQuery{
		Pos:      q.Pos,
		Terms:    obj.NormalizeTerms(append([]obj.TermID(nil), q.Terms...)),
		DeltaMax: bound,
	})
	if err != nil {
		return nil, SearchStats{}, Trace{}, err
	}
	// k is the client's and may exceed the database by any factor: the
	// answer grows by what arrives, and a small k still costs one
	// allocation.
	out := make([]Candidate, 0, min(q.K, knnInitialCap))
	for len(out) < q.K {
		c, ok, err := sks.Next()
		if err != nil {
			return nil, sks.Stats(), sks.Trace(), err
		}
		if !ok {
			break
		}
		out = append(out, c)
	}
	sks.Stop()
	return out, sks.Stats(), sks.Trace(), nil
}
