package core

import (
	"context"
	"fmt"
	"math"
	"slices"
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

// Answer is the collective query over src: the classic weighted set-cover
// greedy (ln|T|-approximate for the sum cost) over the arrivals in
// (distance, ID) order, choosing objects by the lowest distance per newly
// covered term until every term is covered, ties going to the earlier
// arrival. Each arrival's covered terms are the ones its OR load matched.
//
// It reads src only until the group is final. Once the arrivals cover
// every term, the greedy runs over them after each arrival. An object not
// yet arrived is no nearer than γ, the latest arrival's distance, and
// covers at most a round's open terms; so once every round's pick has a
// distance per term below γ over that round's open count (coverFinal), no
// later arrival can win or tie a round, the group is the one the whole
// stream would give, and src is stopped with Stats.EarlyTerminate. A
// query with a term nothing in range holds reads src to the end. The
// greedy's time is Trace.Diversify.
func (q CollectiveQuery) Answer(_ context.Context, src ArrivalSource, _ ccam.Network, res *Result) error {
	skq, _ := q.Expansion()
	n := len(skq.Terms)
	var (
		cands   []coverCand
		missing = n               // terms no arrival holds yet
		held    = make([]bool, n) // term position -> some arrival holds it
		picks   []Candidate
		rounds  []coverRound
		busy    time.Duration
	)
	for {
		c, ok, err := src.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		start := time.Now()
		a := coverCand{c, src.Terms()}
		// A single node emits equal distances in discovery order; keeping
		// the (distance, ID) order makes the group independent of how the
		// arrivals were merged.
		i := sort.Search(len(cands), func(i int) bool { return candidateBefore(c, cands[i].Candidate) })
		cands = slices.Insert(cands, i, a)
		for t := range held {
			if !held[t] && a.covers.Has(t) {
				held[t] = true
				missing--
			}
		}
		final := false
		if missing == 0 {
			picks, rounds, _ = setCover(cands, n)
			final = coverFinal(rounds, c.Dist)
		}
		busy += time.Since(start)
		if final {
			src.Stop()
			res.Stats.EarlyTerminate = true
			break
		}
	}
	start := time.Now()
	var uncovered []int
	if missing > 0 {
		picks, _, uncovered = setCover(cands, n)
	}
	group := &CollectiveResult{Objects: picks, Covered: len(uncovered) == 0}
	for _, c := range picks {
		group.Cost += c.Dist
	}
	for _, t := range uncovered {
		group.Uncovered = append(group.Uncovered, skq.Terms[t])
	}
	sort.Slice(group.Objects, func(i, j int) bool { return candidateBefore(group.Objects[i], group.Objects[j]) })
	res.Collective = group
	res.Trace.Diversify = busy + time.Since(start)
	return nil
}

// coverCand is an arrival with the query terms it holds.
type coverCand struct {
	Candidate
	covers index.TermSet
}

// coverRound is one round of the set-cover greedy: the distance per newly
// covered term its pick won at, and the number of terms open when it
// began.
type coverRound struct {
	ratio float64
	open  int
}

// setCover is the set-cover greedy over cands, which are in (distance, ID)
// order, for the term positions 0 to n-1: each round picks the candidate
// with the lowest distance per open term it holds, the earlier one on a
// tie, until every term is covered or no candidate holds an open one. It
// returns the picks in the order chosen, the rounds, and the positions
// left open.
func setCover(cands []coverCand, n int) ([]Candidate, []coverRound, []int) {
	var picks []Candidate
	var rounds []coverRound
	open := make([]int, n)
	for i := range open {
		open[i] = i
	}
	for len(open) > 0 {
		best, bestRatio := -1, math.Inf(1)
		for i, c := range cands {
			gain := 0
			for _, t := range open {
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
		picks = append(picks, b.Candidate)
		rounds = append(rounds, coverRound{ratio: bestRatio, open: len(open)})
		open = slices.DeleteFunc(open, b.covers.Has)
	}
	return picks, rounds, open
}

// coverFinal reports whether no candidate at distance gamma or farther
// could win or tie a round of the greedy rounds describe: one holds at
// most a round's open terms, so its distance per term is at least gamma
// over their count.
func coverFinal(rounds []coverRound, gamma float64) bool {
	for _, r := range rounds {
		if r.ratio >= gamma/float64(r.open) {
			return false
		}
	}
	return true
}

// candidateBefore is the arrival order: distance, then ID.
func candidateBefore(a, b Candidate) bool {
	if a.Dist != b.Dist {
		return a.Dist < b.Dist
	}
	return a.Ref.ID < b.Ref.ID
}
