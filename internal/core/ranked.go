package core

import (
	"context"
	"fmt"
	"sort"

	"dsks/internal/ccam"
	"dsks/internal/graph"
	"dsks/internal/index"
	"dsks/internal/metrics"
	"dsks/internal/obj"
)

// RankedQuery is the top-k ranked spatial keyword query (the road-network
// variant studied by Rocha-Junior et al., which the paper's related work
// discusses): instead of the boolean AND, objects are scored by a convex
// combination of spatial proximity and textual overlap,
//
//	score(o) = α·(1 − δ(q,o)/DeltaMax) + (1−α)·|o.T ∩ q.T| / |q.T|
//
// and the K highest-scoring objects containing at least one query keyword
// within DeltaMax are returned.
type RankedQuery struct {
	Pos      graph.Position
	Terms    []obj.TermID
	K        int
	Alpha    float64 // spatial weight in [0,1]
	DeltaMax float64
}

// Validate checks the query's well-formedness.
func (q RankedQuery) Validate() error {
	if len(q.Terms) == 0 {
		return fmt.Errorf("core: ranked query needs at least one keyword")
	}
	if q.K < 1 {
		return fmt.Errorf("core: ranked query needs k >= 1, got %d", q.K)
	}
	if err := CheckOffset(q.Pos); err != nil {
		return err
	}
	if err := finite("alpha", q.Alpha); err != nil {
		return err
	}
	if err := finite("DeltaMax", q.DeltaMax); err != nil {
		return err
	}
	if q.Alpha < 0 || q.Alpha > 1 {
		return fmt.Errorf("core: alpha must be in [0,1], got %v", q.Alpha)
	}
	if q.DeltaMax <= 0 {
		return fmt.Errorf("core: DeltaMax must be positive, got %v", q.DeltaMax)
	}
	return nil
}

// RankedResult is one scored object.
type RankedResult struct {
	Ref     index.ObjectRef
	Dist    float64
	Matched int
	Score   float64
}

// Expansion is the OR search a ranked query runs: its terms normalized,
// its radius DeltaMax.
func (q RankedQuery) Expansion() (SKQuery, bool) {
	return expansionQuery(q.Pos, q.Terms, q.DeltaMax), true
}

// Kind is metrics.KindRanked.
func (RankedQuery) Kind() metrics.QueryKind { return metrics.KindRanked }

// Answer is the top-k ranked query over src. Each arrival is scored at its
// final distance. Once k scores are in, src's radius is lowered to the
// farthest distance at which an unseen object could still enter the top k
// — a perfect textual match there ties the k-th best score, and the
// spatial part of a score only falls with distance — so the expansion ends
// as soon as none can; Stats.EarlyTerminate reports a radius lowered below
// DeltaMax. The answer is best score first, distance then ID breaking
// ties.
func (q RankedQuery) Answer(_ context.Context, src ArrivalSource, _ ccam.Network, res *Result) error {
	skq, _ := q.Expansion()
	nterms := float64(len(skq.Terms))
	radius := q.DeltaMax
	top := make([]RankedResult, 0, min(q.K, answerCap))
	for {
		c, ok, err := src.Next()
		if err != nil {
			return err
		}
		if !ok {
			res.Ranked = top
			return nil
		}
		matched := src.Terms().Len()
		r := RankedResult{Ref: c.Ref, Dist: c.Dist, Matched: matched,
			Score: q.Alpha*max(0, 1-c.Dist/q.DeltaMax) + (1-q.Alpha)*float64(matched)/nterms}
		at := sort.Search(len(top), func(i int) bool { return rankedBefore(r, top[i]) })
		if at == q.K {
			continue
		}
		if len(top) < q.K {
			top = append(top, RankedResult{})
		}
		copy(top[at+1:], top[at:])
		top[at] = r
		if len(top) == q.K {
			if reach := q.reach(top[q.K-1].Score, c.Dist); reach < radius {
				radius, res.Stats.EarlyTerminate = reach, true
				src.Limit(reach)
			}
		}
	}
}

// rankedBefore is the ranked answer's order: higher score, then shorter
// distance, then smaller ID.
func rankedBefore(a, b RankedResult) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	if a.Dist != b.Dist {
		return a.Dist < b.Dist
	}
	return a.Ref.ID < b.Ref.ID
}

// reach is how far an unseen object can lie and still enter a top k whose
// k-th score is kth, when the last arrival was at d. A perfect textual
// match scores kth at distance DeltaMax·(1 − (kth − (1−α))/α) and less
// beyond it; the slack absorbs the rounding of that inverse. An object at
// d itself can tie kth and win on its ID, so reach is never below d. With
// α = 0 the distance does not score: nothing is out of reach until the
// k-th best is a perfect match.
func (q RankedQuery) reach(kth, d float64) float64 {
	switch {
	case q.Alpha > 0:
		return max(d, q.DeltaMax*(1-(kth-(1-q.Alpha))/q.Alpha)+1e-9*q.DeltaMax)
	case kth >= 1:
		return d
	}
	return q.DeltaMax
}
