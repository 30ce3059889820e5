package sig

import (
	"context"
	"sort"
	"sync/atomic"

	"dsks/internal/graph"
	"dsks/internal/index"
	"dsks/internal/invindex"
	"dsks/internal/obj"
	"dsks/internal/storage"
)

// Counters records the signature-level behaviour of a SIF/SIF-P index:
// how many edge probes were rejected by the signature test (zero I/O),
// how many passed and hit objects (true hits) or loaded pages for nothing
// (false hits), and how many objects were loaded in total. Figure 9 of the
// paper plots FalseHits.
type Counters struct {
	SigRejected   int64 // edges pruned by the signature test
	Probes        int64 // edges that passed and probed the inverted file
	TrueHits      int64 // probes returning at least one qualifying object
	FalseHits     int64 // probes returning nothing (the wasted I/O)
	ObjectsLoaded int64 // qualifying objects materialized
}

// Options configures BuildSIF.
type Options struct {
	// MaxCuts is the cut budget per partitioned edge; 0 builds a plain SIF
	// (no virtual edges). The paper's default for SIF-P is 3.
	MaxCuts int
	// TopFraction selects which edges to partition: those whose object
	// count ranks within the top fraction (the paper uses the top 10%).
	// Zero defaults to 0.1 when MaxCuts > 0.
	TopFraction float64
	// Partition splits each selected edge; nil is PartitionGreedy.
	Partition Partitioner
	// Log supplies the per-edge query log; required when MaxCuts > 0.
	Log LogSource
	// SelectivityOrder reads the inner inverted file's lists rarest term
	// first, so a probe stops at the rarest term's empty list. The served
	// indexes turn it on (engine.Network.SigOptions); off is the paper's
	// query order, which the experiments keep.
	SelectivityOrder bool
}

// Roots is the versioned root state of the signature layer: the per-term
// signatures (nil for terms without one). A published Roots must never be
// mutated; InsertObjectAt clones the slice (and, via WithBit, the touched
// signatures) before writing, so a shallow struct copy is a safe starting
// point for a mutation.
type Roots struct {
	Sigs []*TermSignature
}

// SIF is the signature-based inverted index (Section 3.1), optionally
// enhanced with edge partitioning (SIF-P, Section 3.3). It wraps the IF
// loader: an edge whose signature test fails for any query keyword is
// rejected without touching the inverted file.
//
// The slot layout and cut bounds are build-time constants; the signatures
// and the inner inverted file are versioned (Roots / invindex.Roots), so
// queries can run against a pinned snapshot through ReaderAt while a
// mutator builds the next version via InsertObjectAt.
type SIF struct {
	layout *Layout
	roots  Roots
	inner  *invindex.Loader
	opts   Options
	// cutBounds maps a partitioned edge to the geometric offsets where its
	// virtual edges begin (ascending); a position's virtual edge is the
	// number of bounds at or below its offset. Needed to place dynamically
	// inserted objects into the right slot.
	cutBounds map[graph.EdgeID][]float64

	sigRejected   atomic.Int64
	probes        atomic.Int64
	trueHits      atomic.Int64
	falseHits     atomic.Int64
	objectsLoaded atomic.Int64
}

// BuildSIF constructs the signature layer over an already-built inverted
// index. Following the paper, no signature is built for a keyword whose
// inverted file fits into a single page (the probe is at most one I/O
// anyway); such keywords always pass the test.
func BuildSIF(g *graph.Graph, c *obj.Collection, vocabSize int, inv *invindex.Index, coder invindex.EdgeZCoder, opts Options) (*SIF, error) {
	layout := NewLayout(g)

	// Decide which edges to partition (SIF-P): the top fraction by object
	// count, minimum two objects.
	partitions := make(map[graph.EdgeID][]int) // edge -> cut positions
	cutBounds := make(map[graph.EdgeID][]float64)
	if opts.MaxCuts > 0 {
		frac := opts.TopFraction
		if frac <= 0 {
			frac = 0.1
		}
		partition := opts.Partition
		if partition == nil {
			partition = PartitionGreedy
		}
		ranked := c.Edges()
		sort.Slice(ranked, func(i, j int) bool {
			ni, nj := len(c.OnEdge(ranked[i])), len(c.OnEdge(ranked[j]))
			if ni != nj {
				return ni > nj
			}
			return ranked[i] < ranked[j]
		})
		top := int(float64(len(ranked)) * frac)
		for _, e := range ranked[:top] {
			ids := c.OnEdge(e)
			if len(ids) < 2 {
				continue
			}
			objTerms := make([][]obj.TermID, len(ids))
			for i, id := range ids {
				objTerms[i] = c.Get(id).Terms
			}
			cuts, _ := partition(objTerms, opts.Log.ForEdge(e, objTerms), opts.MaxCuts)
			if len(cuts) > 0 {
				partitions[e] = cuts
				layout.SetVirtualEdges(e, len(cuts)+1)
				bounds := make([]float64, len(cuts))
				for bi, cut := range cuts {
					// The next virtual edge starts at the first object
					// after the cut.
					bounds[bi] = c.Get(ids[cut+1]).Pos.Offset
				}
				cutBounds[e] = bounds
			}
		}
		layout.Finalize()
	}

	// Collect set-bit positions per term, edge by edge in slot order so
	// that every term's positions come out ascending.
	positions := make([][]int32, vocabSize)
	for _, e := range layout.kdOrder {
		ids := c.OnEdge(e)
		start, _ := layout.Slots(e)
		cuts := partitions[e]
		slotOf := func(objIdx int) int32 {
			v := 0
			for _, cut := range cuts {
				if objIdx > cut {
					v++
				}
			}
			return start + int32(v)
		}
		for i, id := range ids {
			s := slotOf(i)
			for _, t := range c.Get(id).Terms {
				positions[t] = append(positions[t], s)
			}
		}
	}
	sifs := make([]*TermSignature, vocabSize)
	for t := range sifs {
		if len(positions[t]) == 0 {
			continue
		}
		if inv.ListPages(obj.TermID(t)) <= 1 {
			continue // the paper skips signatures for one-page lists
		}
		sifs[t] = NewTermSignature(layout.NumSlots(), positions[t])
	}
	return &SIF{
		layout:    layout,
		roots:     Roots{Sigs: sifs},
		inner:     &invindex.Loader{Idx: inv, Coder: coder, SelectivityOrder: opts.SelectivityOrder},
		opts:      opts,
		cutBounds: cutBounds,
	}, nil
}

// slotOf resolves the slot of a position on edge e (virtual edge lookup
// for partitioned edges).
func (s *SIF) slotOf(e graph.EdgeID, offset float64) int32 {
	start, _ := s.layout.Slots(e)
	v := int32(0)
	for _, b := range s.cutBounds[e] {
		if offset >= b {
			v++
		}
	}
	return start + v
}

// InsertObjectAt adds a new object through the copy-on-write path: its
// postings go to the inverted file via p and *inv, and its keywords'
// signature bits are set on the covering (virtual) edge slot in *r —
// cloning the signature slice and the touched signatures, never mutating
// published state. Terms without a signature stay that way (they are
// always probed, which remains sound).
func (s *SIF) InsertObjectAt(p storage.Pager, inv *invindex.Roots, r *Roots, id obj.ID, e graph.EdgeID, offset float64, terms []obj.TermID) error {
	terms = obj.NormalizeTerms(append([]obj.TermID(nil), terms...))
	if err := s.inner.Idx.InsertObjectAt(p, inv, s.inner.Coder.EdgeZCode(e), id, offset, terms); err != nil {
		return err
	}
	slot := s.slotOf(e, offset)
	cloned := false
	for _, t := range terms {
		if int(t) >= len(r.Sigs) || r.Sigs[t] == nil {
			continue
		}
		ns := r.Sigs[t].WithBit(slot)
		if ns == r.Sigs[t] {
			continue
		}
		if !cloned {
			r.Sigs = append([]*TermSignature(nil), r.Sigs...)
			cloned = true
		}
		r.Sigs[t] = ns
	}
	return nil
}

// RemoveObjectAt deletes an object's postings from the inverted file
// through the copy-on-write path. The signature bits stay set — clearing
// them would require recounting every other object on the slot — which
// keeps the test sound (a stale 1-bit only costs a potential false hit,
// never a miss).
func (s *SIF) RemoveObjectAt(p storage.Pager, inv *invindex.Roots, id obj.ID, e graph.EdgeID, terms []obj.TermID) error {
	terms = obj.NormalizeTerms(append([]obj.TermID(nil), terms...))
	return s.inner.Idx.RemoveObjectAt(p, inv, s.inner.Coder.EdgeZCode(e), id, terms)
}

// ReaderAt returns a SIFReader running the signature-filtered query logic
// against the page source pr and the root snapshots inv (inverted file)
// and r (signatures). With a page source over a pinned storage.PageView
// and published roots the reader is latch-free and consistent at one LSN.
// It is one small allocation, made per query.
func (s *SIF) ReaderAt(pr storage.PageReader, inv *invindex.Roots, r *Roots) *SIFReader {
	return &SIFReader{s: s, inner: s.inner.At(pr, inv), sigs: r.Sigs}
}

// SIFReader is a SIF bound to an explicit page source and root snapshot.
// Probe counters accumulate on the shared SIF (they are process-wide
// statistics, not versioned state).
type SIFReader struct {
	s     *SIF
	inner invindex.Reader
	sigs  []*TermSignature
}

// LoadObjects implements index.Loader (Algorithm 2 with the signature
// test): the edge is rejected without I/O if no (virtual) edge slot has
// every query keyword's bit set.
func (v *SIFReader) LoadObjects(ctx context.Context, e graph.EdgeID, terms []obj.TermID) ([]index.ObjectRef, error) {
	if len(terms) == 0 {
		return nil, nil
	}
	if !v.s.passesIn(v.sigs, e, terms) {
		v.s.sigRejected.Add(1)
		return nil, nil
	}
	v.s.probes.Add(1)
	refs, err := v.inner.LoadObjects(ctx, e, terms)
	if err != nil {
		return nil, err
	}
	if len(refs) == 0 {
		v.s.falseHits.Add(1)
	} else {
		v.s.trueHits.Add(1)
		v.s.objectsLoaded.Add(int64(len(refs)))
	}
	return refs, nil
}

// LoadObjectsAny implements index.UnionLoader (the OR semantics of the
// ranked query): the signature test filters each term independently — a
// term whose bit is clear on every slot of e triggers no I/O at all.
func (v *SIFReader) LoadObjectsAny(ctx context.Context, e graph.EdgeID, terms []obj.TermID) ([]index.ObjectMatch, error) {
	if len(terms) == 0 {
		return nil, nil
	}
	start, count := v.s.layout.Slots(e)
	probe := terms[:0:0]
	var at []int // probe position -> position in terms
	for i, t := range terms {
		ts := v.sigs[t]
		if ts == nil || ts.TestRange(start, count) {
			probe = append(probe, t)
			at = append(at, i)
		}
	}
	if len(probe) == 0 {
		v.s.sigRejected.Add(1)
		return nil, nil
	}
	v.s.probes.Add(1)
	matches, err := v.inner.LoadObjectsAny(ctx, e, probe)
	if err != nil {
		return nil, err
	}
	if len(probe) < len(terms) {
		for j := range matches {
			var ts index.TermSet
			for p, i := range at {
				if matches[j].Terms.Has(p) {
					ts.Add(i)
				}
			}
			matches[j].Terms = ts
		}
	}
	if len(matches) == 0 {
		v.s.falseHits.Add(1)
	} else {
		v.s.trueHits.Add(1)
		v.s.objectsLoaded.Add(int64(len(matches)))
	}
	return matches, nil
}

// reader returns a SIFReader over the live roots and the buffer pool (the
// legacy read path).
func (s *SIF) reader() *SIFReader {
	return s.ReaderAt(s.inner.Idx.Pool(), s.inner.Idx.CurrentRoots(), &s.roots)
}

// LoadObjects implements index.Loader against the live roots.
func (s *SIF) LoadObjects(ctx context.Context, e graph.EdgeID, terms []obj.TermID) ([]index.ObjectRef, error) {
	return s.reader().LoadObjects(ctx, e, terms)
}

// LoadObjectsAny implements index.UnionLoader against the live roots.
func (s *SIF) LoadObjectsAny(ctx context.Context, e graph.EdgeID, terms []obj.TermID) ([]index.ObjectMatch, error) {
	return s.reader().LoadObjectsAny(ctx, e, terms)
}

// passesIn evaluates the AND-semantics signature test over e's slots
// against an explicit signature snapshot.
func (s *SIF) passesIn(sigs []*TermSignature, e graph.EdgeID, terms []obj.TermID) bool {
	start, count := s.layout.Slots(e)
	if count == 1 {
		for _, t := range terms {
			if ts := sigs[t]; ts != nil && !ts.Test(start) {
				return false
			}
		}
		return true
	}
	// Partitioned edge: some virtual edge must contain all terms.
	for v := int32(0); v < count; v++ {
		ok := true
		for _, t := range terms {
			if ts := sigs[t]; ts != nil && !ts.Test(start+v) {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// Passes exposes the signature test over the live roots (used by the
// experiments' SIF-G and by tests).
func (s *SIF) Passes(e graph.EdgeID, terms []obj.TermID) bool {
	return s.passesIn(s.roots.Sigs, e, terms)
}

// Counters returns a snapshot of the probe statistics.
func (s *SIF) Counters() Counters {
	return Counters{
		SigRejected:   s.sigRejected.Load(),
		Probes:        s.probes.Load(),
		TrueHits:      s.trueHits.Load(),
		FalseHits:     s.falseHits.Load(),
		ObjectsLoaded: s.objectsLoaded.Load(),
	}
}

// ResetCounters zeroes the probe statistics.
func (s *SIF) ResetCounters() {
	s.sigRejected.Store(0)
	s.probes.Store(0)
	s.trueHits.Store(0)
	s.falseHits.Store(0)
	s.objectsLoaded.Store(0)
}

// SignatureBytes returns the total compacted size of all term signatures —
// the paper's "signature file" size.
func (s *SIF) SignatureBytes() int64 {
	var total int64
	for _, ts := range s.roots.Sigs {
		if ts != nil {
			total += ts.SizeBytes()
		}
	}
	return total
}

// FlatSignatureBytes returns what the signatures would cost as plain
// bitmaps (one bit per slot per signed term) — the baseline the KD-tree
// compaction is measured against.
func (s *SIF) FlatSignatureBytes() int64 {
	perTerm := (int64(s.layout.NumSlots()) + 7) / 8
	var total int64
	for _, ts := range s.roots.Sigs {
		if ts != nil {
			total += perTerm
		}
	}
	return total
}

// SizeBytes implements index.Sizer: inverted files plus signatures.
func (s *SIF) SizeBytes() int64 { return s.inner.Idx.SizeBytes() + s.SignatureBytes() }

// Index exposes the underlying inverted index (for counters and tests).
func (s *SIF) Index() *invindex.Index { return s.inner.Idx }

// Roots returns a copy of the live signature roots — the starting point
// for a copy-on-write mutation or a published snapshot for readers.
func (s *SIF) Roots() Roots { return s.roots }

// Layout exposes the slot layout (for tests and the experiments' SIF-G).
func (s *SIF) Layout() *Layout { return s.layout }

// HasSignature reports whether term t carries a signature.
func (s *SIF) HasSignature(t obj.TermID) bool {
	return int(t) < len(s.roots.Sigs) && s.roots.Sigs[t] != nil
}
