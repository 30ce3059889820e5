// Package harness is the experiments' client of internal/engine: it builds
// several object index kinds — the engine's three plus the IR, SIF-G and
// C1 baselines of internal/experiments/baselines, and any variant an
// experiment builds there — over one shared disk-resident network, and
// runs queries against any of them while collecting the cost metrics the
// figures report (response time, disk accesses, candidate counts); its
// diversified runs choose between COM and the baselines' SEQ. It is the
// substrate of the experiment drivers, the benchmark probes and the core
// integration tests; the database itself stands on the engine alone.
package harness

import (
	"context"
	"fmt"
	"time"

	"dsks/internal/alt"
	"dsks/internal/ccam"
	"dsks/internal/core"
	"dsks/internal/dataset"
	"dsks/internal/engine"
	"dsks/internal/experiments/baselines"
	"dsks/internal/index"
	"dsks/internal/invindex"
	"dsks/internal/obj"
	"dsks/internal/sig"
	"dsks/internal/storage"
)

// IndexKind names one of the object index structures of the evaluation.
type IndexKind = engine.IndexKind

// The engine's three structures of Section 5, plus the experiment-only
// baselines.
const (
	KindIF   = engine.KindIF
	KindSIF  = engine.KindSIF
	KindSIFP = engine.KindSIFP
	KindIR   = baselines.KindIR
	KindSIFG = baselines.KindSIFG
	KindC1   = baselines.KindC1
)

// Options configures a system build; Index and WALDir are ignored (Build
// takes its kinds, and a system logs nothing).
type Options = engine.Options

// DivAlgo selects the diversified search algorithm.
type DivAlgo string

// The two diversified algorithms of Section 5.2.
const (
	AlgoSEQ DivAlgo = "SEQ"
	AlgoCOM DivAlgo = "COM"
)

// System is a built instance: the disk-resident network and the requested
// object indexes, each an engine over the one shared network.
type System struct {
	DS  *dataset.Dataset
	Net *ccam.File
	// Oracle is the landmark distance oracle, nil unless Options.Oracle
	// was set.
	Oracle *alt.Oracle

	// BuildTime and IndexSize per index kind (Figure 6b/6c); BuildTime
	// also carries the landmark oracle's under "oracle".
	BuildTime map[IndexKind]time.Duration
	IndexSize map[IndexKind]int64

	// Direct handles for index-specific inspection.
	Inv   *invindex.Index
	SIF   *sig.SIF
	SIFP  *sig.SIF
	Group *baselines.Group
	C1    *baselines.EdgeStore

	net     *engine.Network
	engines map[IndexKind]*engine.Engine
	pools   []*storage.BufferPool
}

// Build lays ds out on disk and constructs the requested index kinds. IF,
// SIF and SIF-P are built as served (baselines.Variant) but probe in the
// paper's query order, the order the evaluation's figures are measured in.
func Build(ds *dataset.Dataset, kinds []IndexKind, opts Options) (*System, error) {
	return BuildFrames(ds, kinds, opts, 0)
}

// BuildFrames is Build with every buffer pool fixed at frames frames when
// frames is positive, overriding Options.BufferFraction: the buffer
// sweep's budget.
func BuildFrames(ds *dataset.Dataset, kinds []IndexKind, opts Options, frames int) (*System, error) {
	net, err := engine.NewNetwork(ds.Graph, opts, frames, "")
	if err != nil {
		return nil, err
	}
	s := &System{
		DS:        ds,
		Net:       net.File,
		Oracle:    net.Oracle,
		BuildTime: make(map[IndexKind]time.Duration),
		IndexSize: make(map[IndexKind]int64),
		net:       net,
		engines:   make(map[IndexKind]*engine.Engine),
		pools:     net.Pools(),
	}
	if net.OracleBuildTime > 0 {
		s.BuildTime["oracle"] = net.OracleBuildTime
	}
	for _, kind := range kinds {
		build := baselines.Variant(kind, ds.Objects, ds.VocabSize, nil)
		switch kind {
		case KindIR:
			build = baselines.IR(ds.Objects, ds.VocabSize)
		case KindSIFG:
			build = baselines.SIFG(ds.Objects, ds.VocabSize, baselines.GroupTopX)
		case KindC1:
			build = baselines.C1(ds.Objects, ds.VocabSize)
		}
		if err := s.Attach(kind, build); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Attach builds one more object index over the system's network and
// registers it under kind: the way an experiment adds a baseline sized
// its own way or a variant of a served index (baselines.Variant).
func (s *System) Attach(kind IndexKind, build baselines.Builder) error {
	e, err := build(s.net)
	if err != nil {
		return err
	}
	switch l := e.Loader.(type) {
	case *invindex.Loader:
		s.Inv = l.Idx
	case *sig.SIF:
		if kind == KindSIFP {
			s.SIFP = l
		} else {
			s.SIF = l
		}
	case *baselines.Group:
		s.Group = l
	case *baselines.EdgeStore:
		s.C1 = l
	}
	s.engines[kind], s.pools = e, append(s.pools, e.Pool)
	s.BuildTime[kind], s.IndexSize[kind] = e.BuildTime, e.SizeBytes
	return nil
}

// SearchNet returns the network the diversified searches run over: the
// CCAM file plus the oracle attachment (which is counters-only when no
// oracle is built).
func (s *System) SearchNet() ccam.Network { return s.net.SearchNet }

// Pools returns every buffer pool of the system: the network pool first,
// then the oracle's if one is built, then one per object index.
func (s *System) Pools() []*storage.BufferPool { return s.pools }

// engine returns the engine of the given kind.
func (s *System) engine(kind IndexKind) (*engine.Engine, error) {
	e, ok := s.engines[kind]
	if !ok {
		return nil, fmt.Errorf("harness: index %q not built", kind)
	}
	return e, nil
}

// Loader returns the query loader of the given kind.
func (s *System) Loader(kind IndexKind) (index.Loader, error) {
	e, err := s.engine(kind)
	if err != nil {
		return nil, err
	}
	return e.Loader, nil
}

// ObjPool returns the buffer pool backing the given object index, or nil
// when the kind is not built.
func (s *System) ObjPool(kind IndexKind) *storage.BufferPool {
	if e := s.engines[kind]; e != nil {
		return e.Pool
	}
	return nil
}

// ResetIO zeroes all I/O counters and cools all buffers.
func (s *System) ResetIO() error { return engine.ResetIO(s.pools) }

// DiskReads returns the disk accesses since the last reset: network +
// the given index.
func (s *System) DiskReads(kind IndexKind) int64 {
	e, err := s.engine(kind)
	if err != nil {
		return 0
	}
	return e.DiskReads()
}

// run executes one query of any family against the given index.
func (s *System) run(ctx context.Context, kind IndexKind, q core.Query) (engine.Result, error) {
	e, err := s.engine(kind)
	if err != nil {
		return engine.Result{}, err
	}
	return e.Run(ctx, engine.Snapshot{}, q)
}

// RunSK executes a boolean SK query (Algorithm 3) against the given index.
// ctx cancels or deadline-bounds the search (core.ErrCanceled /
// core.ErrDeadlineExceeded).
func (s *System) RunSK(ctx context.Context, kind IndexKind, q core.SKQuery) (engine.Result, error) {
	return s.run(ctx, kind, q)
}

// RunDiv executes a diversified SK query with SEQ or COM over the given
// index (the paper evaluates both over SIF). An unknown algo fails with an
// error matching engine.ErrBadOptions before any I/O.
func (s *System) RunDiv(ctx context.Context, kind IndexKind, algo DivAlgo, q core.DivQuery) (engine.Result, error) {
	switch algo {
	case AlgoCOM:
		return s.run(ctx, kind, q)
	case AlgoSEQ:
		return s.run(ctx, kind, baselines.SEQQuery{DivQuery: q})
	}
	return engine.Result{}, fmt.Errorf("%w: unknown diversified algorithm %q", engine.ErrBadOptions, algo)
}

// RunKNN executes a boolean kNN spatial keyword query.
func (s *System) RunKNN(ctx context.Context, kind IndexKind, q core.KNNQuery) (engine.Result, error) {
	return s.run(ctx, kind, q)
}

// RunRanked executes a top-k ranked spatial keyword query. The index must
// provide union (OR) loads.
func (s *System) RunRanked(ctx context.Context, kind IndexKind, q core.RankedQuery) (engine.Result, error) {
	return s.run(ctx, kind, q)
}

// RunCollective executes a collective (group keyword cover) query. The
// index must provide union (OR) loads.
func (s *System) RunCollective(ctx context.Context, kind IndexKind, q core.CollectiveQuery) (engine.Result, error) {
	return s.run(ctx, kind, q)
}

// SKQueryOf converts a workload query into a core query.
func SKQueryOf(q dataset.Query) core.SKQuery {
	return core.SKQuery{Pos: q.Pos, Terms: q.Terms, DeltaMax: q.DeltaMax}
}

// DivQueryOf converts a workload query into a diversified core query.
func DivQueryOf(q dataset.Query, k int, lambda float64) core.DivQuery {
	return core.DivQuery{SKQuery: SKQueryOf(q), K: k, Lambda: lambda}
}

// TermsOf exposes the term sets of a workload (for building SIF-P-Real).
func TermsOf(ws []dataset.Query) [][]obj.TermID {
	out := make([][]obj.TermID, len(ws))
	for i, q := range ws {
		out[i] = q.Terms
	}
	return out
}
