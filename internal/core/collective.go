package core

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"dsks/internal/ccam"
	"dsks/internal/graph"
	"dsks/internal/index"
	"dsks/internal/metrics"
	"dsks/internal/obj"
)

// CollectiveQuery is the collective spatial keyword search the paper's
// related work discusses (Cao et al. [15]): instead of requiring a single
// object to contain every keyword, a *group* of objects must collectively
// cover the query keywords, at minimal total network distance from the
// query (the sum cost of [15]'s TYPE1 queries).
type CollectiveQuery struct {
	Pos      graph.Position
	Terms    []obj.TermID
	DeltaMax float64
}

// Validate checks the query's well-formedness.
func (q CollectiveQuery) Validate() error {
	if len(q.Terms) == 0 {
		return fmt.Errorf("core: collective query needs at least one keyword")
	}
	if err := CheckOffset(q.Pos); err != nil {
		return err
	}
	if err := finite("DeltaMax", q.DeltaMax); err != nil {
		return err
	}
	if q.DeltaMax <= 0 {
		return fmt.Errorf("core: DeltaMax must be positive, got %v", q.DeltaMax)
	}
	return nil
}

// CollectiveResult is the chosen group.
type CollectiveResult struct {
	// Objects are the chosen group members with their network distances.
	Objects []Candidate
	// Cost is the sum of the members' network distances from the query.
	Cost float64
	// Covered reports whether every query keyword is covered; when false,
	// Uncovered lists the keywords no in-range object contains.
	Covered   bool
	Uncovered []obj.TermID
}

// Expansion is the OR search a collective query runs: its terms
// normalized, its radius DeltaMax.
func (q CollectiveQuery) Expansion() (SKQuery, bool) {
	return expansionQuery(q.Pos, q.Terms, q.DeltaMax), true
}

// Kind is metrics.KindCollective.
func (CollectiveQuery) Kind() metrics.QueryKind { return metrics.KindCollective }

// Answer is the collective query over src. It drains src, then runs the
// classic weighted set-cover greedy (ln|T|-approximate for the sum cost)
// over the arrivals in (distance, ID) order: objects are chosen by the
// lowest distance per newly covered term until every term is covered, ties
// going to the earlier arrival. Each arrival's covered terms are the ones
// its OR load matched. The greedy's time is Trace.Diversify.
func (q CollectiveQuery) Answer(_ context.Context, src ArrivalSource, _ ccam.Network, res *Result) error {
	type cand struct {
		Candidate
		covers index.TermSet
	}
	var cands []cand
	for {
		c, ok, err := src.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		cands = append(cands, cand{c, src.Terms()})
	}
	skq, _ := q.Expansion()
	terms := skq.Terms
	start := time.Now()
	// A single node emits equal distances in discovery order; sorting
	// makes the group independent of how the arrivals were merged.
	sort.Slice(cands, func(i, j int) bool { return candidateBefore(cands[i].Candidate, cands[j].Candidate) })
	uncovered := make([]int, len(terms)) // positions in terms
	for i := range uncovered {
		uncovered[i] = i
	}
	group := &CollectiveResult{}
	for len(uncovered) > 0 {
		best, bestRatio := -1, math.Inf(1)
		for i, c := range cands {
			gain := 0
			for _, t := range uncovered {
				if c.covers.Has(t) {
					gain++
				}
			}
			if gain == 0 {
				continue
			}
			// Distance 0 objects cover for free.
			if ratio := c.Dist / float64(gain); ratio < bestRatio {
				best, bestRatio = i, ratio
			}
		}
		if best < 0 {
			break // some terms cannot be covered in range
		}
		b := cands[best]
		group.Objects = append(group.Objects, b.Candidate)
		group.Cost += b.Dist
		kept := uncovered[:0]
		for _, t := range uncovered {
			if !b.covers.Has(t) {
				kept = append(kept, t)
			}
		}
		uncovered = kept
	}
	group.Covered = len(uncovered) == 0
	for _, t := range uncovered {
		group.Uncovered = append(group.Uncovered, terms[t])
	}
	sort.Slice(group.Objects, func(i, j int) bool { return candidateBefore(group.Objects[i], group.Objects[j]) })
	res.Collective = group
	res.Trace.Diversify = time.Since(start)
	return nil
}

// candidateBefore is the arrival order: distance, then ID.
func candidateBefore(a, b Candidate) bool {
	if a.Dist != b.Dist {
		return a.Dist < b.Dist
	}
	return a.Ref.ID < b.Ref.ID
}
