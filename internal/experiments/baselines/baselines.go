// Package baselines holds what the paper's evaluation compares the served
// system against and what the served system never runs: the SEQ
// straw-man of Section 4.1, the exact partition DP of Algorithm 4, the
// SIF-G group index and the replayed query log of Figures 9 and 10, and
// the IR and C1 object layouts of Figure 6 and Section 3.2. Each index
// baseline is built over an engine.Network through Network.Attach, and
// every variant of the three served indexes through Network.BuildIndex,
// so queries against them run through the engine's one run path — the
// same page memo and accounting as the served indexes.
package baselines

import (
	"dsks/internal/engine"
	"dsks/internal/index"
	"dsks/internal/invindex"
	"dsks/internal/obj"
	"dsks/internal/sig"
	"dsks/internal/storage"
)

// The experiment-only index kinds.
const (
	// KindIR is the Euclidean inverted R-tree, Section 5's straw-man.
	KindIR engine.IndexKind = "IR"
	// KindSIFG is the group-based SIF-G baseline.
	KindSIFG engine.IndexKind = "SIF-G"
	// KindC1 stores objects directly with their edges (no inverted
	// structure), the C1 baseline of the paper's Section 3.2 analysis.
	KindC1 engine.IndexKind = "C1"
)

// GroupTopX is the number of frequent terms SIF-G combines pairwise when
// an experiment does not size it itself.
const GroupTopX = 10

// Builder builds one object index over a network.
type Builder func(net *engine.Network) (*engine.Engine, error)

// IR builds the inverted R-tree over the collection.
func IR(c *obj.Collection, vocabSize int) Builder {
	return func(net *engine.Network) (*engine.Engine, error) {
		return net.Attach(KindIR, func(pool *storage.BufferPool) (index.Loader, int64, error) {
			idx, err := BuildIR(net.Graph, c, vocabSize, pool)
			if err != nil {
				return nil, 0, err
			}
			return idx, idx.SizeBytes(), nil
		})
	}
}

// C1 builds the objects-with-their-edges layout of the collection.
func C1(c *obj.Collection, vocabSize int) Builder {
	return func(net *engine.Network) (*engine.Engine, error) {
		return net.Attach(KindC1, func(pool *storage.BufferPool) (index.Loader, int64, error) {
			st, err := BuildEdgeStore(c, vocabSize, pool)
			if err != nil {
				return nil, 0, err
			}
			return st, st.SizeBytes(), nil
		})
	}
}

// SIFG builds a plain SIF over the collection and SIF-G's pair signatures
// of its topX most frequent terms on top; its size counts both.
func SIFG(c *obj.Collection, vocabSize, topX int) Builder {
	return func(net *engine.Network) (*engine.Engine, error) {
		return net.Attach(KindSIFG, func(pool *storage.BufferPool) (index.Loader, int64, error) {
			inv, err := invindex.Build(net.Graph, c, vocabSize, pool)
			if err != nil {
				return nil, 0, err
			}
			coder := invindex.GraphZCoder{G: net.Graph}
			base, err := sig.BuildSIF(net.Graph, c, vocabSize, inv, coder, sig.Options{})
			if err != nil {
				return nil, 0, err
			}
			grp := BuildGroup(base, &invindex.Loader{Idx: inv, Coder: coder}, c, vocabSize, topX)
			return grp, base.SizeBytes() + grp.ExtraSizeBytes(), nil
		})
	}
}

// Variant builds one of the engine's three versioned indexes with the
// signature options it is served with (Network.SigOptions) but the
// paper's probe order, the query's, then changed by edit when edit is
// non-nil: another query log, the exact partitioner, the rarest-first
// probe order.
func Variant(kind engine.IndexKind, c *obj.Collection, vocabSize int, edit func(*sig.Options)) Builder {
	return func(net *engine.Network) (*engine.Engine, error) {
		so := net.SigOptions(kind)
		so.SelectivityOrder = false
		if edit != nil {
			edit(&so)
		}
		return net.BuildIndex(kind, c, vocabSize, so)
	}
}
