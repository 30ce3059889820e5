package baselines

import (
	"context"
	"sort"
	"sync/atomic"

	"dsks/internal/graph"
	"dsks/internal/index"
	"dsks/internal/obj"
	"dsks/internal/sig"
	"dsks/internal/storage"
)

// Group is the group-based indexing baseline (SIF-G) of the Figure 9
// space/cost-effectiveness study: on top of a plain SIF, the pairwise
// combinations of the top-x most frequent terms are treated as new
// "combined terms", each with its own signature and inverted list (only
// edges carrying a single object with both terms are kept). A query
// containing such a pair tests the pair signature directly, eliminating
// false hits the single-term signatures cannot see — at a large space
// premium for the extra inverted lists.
type Group struct {
	base      *sig.SIF
	inner     index.Loader // base's inverted file, probed without the signature test
	pairSig   map[[2]obj.TermID]*sig.TermSignature
	extraSize int64 // space of the pairwise inverted lists, in bytes

	sigRejected atomic.Int64
	probes      atomic.Int64
	trueHits    atomic.Int64
	falseHits   atomic.Int64
}

// BuildGroup constructs a SIF-G over an existing plain SIF and the
// inverted file under it. topX selects how many of the most frequent terms
// form pairs.
func BuildGroup(base *sig.SIF, inner index.Loader, c *obj.Collection, vocabSize, topX int) *Group {
	freq := c.TermFrequencies(vocabSize)
	top := obj.TopK(freq, topX)
	inTop := make(map[obj.TermID]bool, len(top))
	for _, t := range top {
		inTop[t] = true
	}

	// Pair occurrences: edges where a single object holds both terms, plus
	// the posting volume for space accounting.
	type pairData struct {
		slots    []int32
		postings int
	}
	pairs := make(map[[2]obj.TermID]*pairData)
	layout := base.Layout()
	for _, e := range c.Edges() {
		start, _ := layout.Slots(e)
		for _, id := range c.OnEdge(e) {
			ts := c.Get(id).Terms
			var topTerms []obj.TermID
			for _, t := range ts {
				if inTop[t] {
					topTerms = append(topTerms, t)
				}
			}
			for i := 0; i < len(topTerms); i++ {
				for j := i + 1; j < len(topTerms); j++ {
					key := [2]obj.TermID{topTerms[i], topTerms[j]}
					pd := pairs[key]
					if pd == nil {
						pd = &pairData{}
						pairs[key] = pd
					}
					pd.slots = append(pd.slots, start)
					pd.postings++
				}
			}
		}
	}
	g := &Group{base: base, inner: inner, pairSig: make(map[[2]obj.TermID]*sig.TermSignature, len(pairs))}
	const postingBytes = 16
	perPage := (storage.PageSize - 6) / postingBytes
	for key, pd := range pairs {
		g.pairSig[key] = sig.NewTermSignature(layout.NumSlots(), pd.slots)
		pages := (pd.postings + perPage - 1) / perPage
		g.extraSize += int64(pages) * storage.PageSize
	}
	return g
}

// LoadObjects implements index.Loader: the single-term signature test of
// the base SIF runs first, then every in-query pair with a group signature
// must also pass.
func (g *Group) LoadObjects(ctx context.Context, e graph.EdgeID, terms []obj.TermID) ([]index.ObjectRef, error) {
	if len(terms) == 0 {
		return nil, nil
	}
	if !g.base.Passes(e, terms) || !g.pairsPass(e, terms) {
		g.sigRejected.Add(1)
		return nil, nil
	}
	g.probes.Add(1)
	refs, err := g.inner.LoadObjects(ctx, e, terms)
	if err != nil {
		return nil, err
	}
	if len(refs) == 0 {
		g.falseHits.Add(1)
	} else {
		g.trueHits.Add(1)
	}
	return refs, nil
}

func (g *Group) pairsPass(e graph.EdgeID, terms []obj.TermID) bool {
	start, _ := g.base.Layout().Slots(e)
	for i := 0; i < len(terms); i++ {
		for j := i + 1; j < len(terms); j++ {
			key := [2]obj.TermID{terms[i], terms[j]}
			if ts, ok := g.pairSig[key]; ok && !ts.Test(start) {
				return false
			}
		}
	}
	return true
}

// Counters returns the probe statistics.
func (g *Group) Counters() sig.Counters {
	return sig.Counters{
		SigRejected: g.sigRejected.Load(),
		Probes:      g.probes.Load(),
		TrueHits:    g.trueHits.Load(),
		FalseHits:   g.falseHits.Load(),
	}
}

// ResetCounters zeroes the probe statistics.
func (g *Group) ResetCounters() {
	g.sigRejected.Store(0)
	g.probes.Store(0)
	g.trueHits.Store(0)
	g.falseHits.Store(0)
}

// ExtraSizeBytes returns the space of the pairwise inverted lists (the
// premium SIF-G pays over SIF).
func (g *Group) ExtraSizeBytes() int64 { return g.extraSize }

// NumPairs returns how many combined terms were materialized.
func (g *Group) NumPairs() int { return len(g.pairSig) }

// PairTerms lists the materialized pairs in deterministic order (tests).
func (g *Group) PairTerms() [][2]obj.TermID {
	out := make([][2]obj.TermID, 0, len(g.pairSig))
	for k := range g.pairSig {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}
