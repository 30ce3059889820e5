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
	if err := finite("position offset", q.Pos.Offset); err != nil {
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

// SearchCollective finds a keyword-covering group with the classic
// weighted set-cover greedy (ln|T|-approximate for the sum cost):
// candidates containing at least one query keyword are collected within
// DeltaMax, then objects are repeatedly chosen by the lowest
// distance-per-newly-covered-keyword ratio until all keywords are covered
// (ties prefer closer objects, then smaller IDs). The stats and the
// per-stage timings (the set-cover greedy is accounted to Diversify) cover
// the work done on the error path too.
func SearchCollective(ctx context.Context, net ccam.Network, loader index.UnionLoader, q CollectiveQuery) (CollectiveResult, SearchStats, Trace, error) {
	if err := q.Validate(); err != nil {
		return CollectiveResult{}, SearchStats{}, Trace{}, err
	}
	start := time.Now()
	terms := obj.NormalizeTerms(append([]obj.TermID(nil), q.Terms...))

	// Collect the OR-candidates in range: the shared expansion, run out.
	x, err := newExpansion(ctx, net, q.Pos, q.DeltaMax, loadAny(ctx, loader, terms))
	if err != nil {
		return CollectiveResult{}, SearchStats{}, Trace{}, err
	}
	for more := true; more; {
		if more, err = x.step(); err != nil {
			return CollectiveResult{}, x.stats, x.trace, err
		}
	}
	x.stats.Candidates = int64(len(x.objs))

	// Which keywords each candidate covers requires the term sets; the
	// union loader reports only counts, so re-derive coverage by probing
	// per-term loads on the candidate's edge would repeat I/O. Instead,
	// candidates are grouped per edge and coverage resolved with one
	// single-term load per (edge, term) actually needed.
	type cand struct {
		ref    index.ObjectRef
		dist   float64
		covers map[obj.TermID]bool
	}
	cands := make(map[index.ObjectRef]*cand)
	edges := make(map[graph.EdgeID]bool)
	for _, o := range x.objs {
		if o.dist > q.DeltaMax {
			continue
		}
		cands[o.ref] = &cand{ref: o.ref, dist: o.dist, covers: make(map[obj.TermID]bool)}
		edges[o.ref.Edge] = true
	}
	coverStart := time.Now()
	for e := range edges {
		for _, t := range terms {
			refs, err := loader.LoadObjects(ctx, e, []obj.TermID{t})
			if err != nil {
				return CollectiveResult{}, x.stats, x.trace, mapCtxErr(err)
			}
			for _, r := range refs {
				if c, ok := cands[r]; ok {
					c.covers[t] = true
				}
			}
		}
	}
	trace := x.trace
	trace.PostingReads += time.Since(coverStart)
	divStart := time.Now()

	// Greedy weighted set cover.
	uncovered := make(map[obj.TermID]bool, len(terms))
	for _, t := range terms {
		uncovered[t] = true
	}
	ordered := make([]*cand, 0, len(cands))
	for _, c := range cands {
		ordered = append(ordered, c)
	}
	sort.Slice(ordered, func(i, j int) bool {
		if ordered[i].dist != ordered[j].dist {
			return ordered[i].dist < ordered[j].dist
		}
		return ordered[i].ref.ID < ordered[j].ref.ID
	})
	var result CollectiveResult
	for len(uncovered) > 0 {
		var best *cand
		bestRatio := math.Inf(1)
		for _, c := range ordered {
			gain := 0
			for t := range uncovered {
				if c.covers[t] {
					gain++
				}
			}
			if gain == 0 {
				continue
			}
			// Distance 0 objects cover for free.
			ratio := c.dist / float64(gain)
			if ratio < bestRatio {
				best, bestRatio = c, ratio
			}
		}
		if best == nil {
			break // some keywords cannot be covered in range
		}
		result.Objects = append(result.Objects, Candidate{Ref: best.ref, Dist: best.dist})
		result.Cost += best.dist
		for t := range uncovered {
			if best.covers[t] {
				delete(uncovered, t)
			}
		}
	}
	result.Covered = len(uncovered) == 0
	for t := range uncovered {
		result.Uncovered = append(result.Uncovered, t)
	}
	sort.Slice(result.Uncovered, func(i, j int) bool { return result.Uncovered[i] < result.Uncovered[j] })
	sort.Slice(result.Objects, func(i, j int) bool {
		if result.Objects[i].Dist != result.Objects[j].Dist {
			return result.Objects[i].Dist < result.Objects[j].Dist
		}
		return result.Objects[i].Ref.ID < result.Objects[j].Ref.ID
	})
	trace.Diversify = time.Since(divStart)
	trace.Total = time.Since(start)
	return result, x.stats, trace, nil
}
