package experiments

import (
	"context"
	"fmt"
	"time"

	"dsks/internal/ccam"
	"dsks/internal/core"
	"dsks/internal/dataset"
	"dsks/internal/experiments/baselines"
	"dsks/internal/harness"
	"dsks/internal/sig"
)

// The ablations isolate the design choices DESIGN.md calls out: the two
// pruning rules of Algorithm 6, the greedy-vs-DP edge partitioning, the
// accumulated-Dijkstra INE, and the KD-tree signature compaction.

// AblationPruning runs COM with each pruning rule disabled in turn, on the
// NA analogue at the default diversified settings, against full COM and
// SEQ. The paper's claim: both rules contribute, and together they are
// what separates COM from SEQ.
func AblationPruning(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	r := newResult("Ablation: Algorithm 6 pruning rules (NA)",
		"variant", "query ms", "candidates", "pruned", "pair-dist calcs")
	ds, err := dataset.GeneratePreset(dataset.PresetNA, cfg.Scale, cfg.Seed)
	if err != nil {
		return nil, err
	}
	sys, err := harness.Build(ds, []harness.IndexKind{harness.KindSIF}, harness.Options{IOLatency: cfg.IOLatency})
	if err != nil {
		return nil, err
	}
	ws, err := dataset.GenerateWorkload(ds.Objects, ds.VocabSize, dataset.WorkloadConfig{
		NumQueries: cfg.Queries, Keywords: 3, Seed: cfg.Seed + 61,
	})
	if err != nil {
		return nil, err
	}
	loader, err := sys.Loader(harness.KindSIF)
	if err != nil {
		return nil, err
	}
	variants := []struct {
		name  string
		prune core.PruneOptions
		seq   bool
	}{
		{"COM (both rules)", core.PruneOptions{}, false},
		{"COM no early-stop", core.PruneOptions{DisableEarlyStop: true}, false},
		{"COM no object-prune", core.PruneOptions{DisableObjectPrune: true}, false},
		{"COM no pruning", core.PruneOptions{DisableEarlyStop: true, DisableObjectPrune: true}, false},
		{"SEQ", core.PruneOptions{}, true},
	}
	for _, v := range variants {
		if err := sys.ResetIO(); err != nil {
			return nil, err
		}
		var elapsed time.Duration
		var stats core.SearchStats
		for _, wq := range ws {
			dq := harness.DivQueryOf(wq, 10, 0.8)
			var q core.Query = pruneQuery{dq, v.prune}
			if v.seq {
				q = baselines.SEQQuery{DivQuery: dq}
			}
			// Wall-clock latency measurement, not a data source.
			start := time.Now()
			res, err := core.Run(context.Background(), sys.Net, loader, q)
			if err != nil {
				return nil, err
			}
			elapsed += time.Since(start)
			stats.Add(res.Stats) // Add accumulates Pruned and the other counters
		}
		n := float64(len(ws))
		avg := elapsed / time.Duration(len(ws))
		r.addRow(v.name, ms(avg), f1(float64(stats.Candidates)/n),
			i64(stats.Pruned), f1(float64(stats.PairDistCalcs)/n))
		r.series(v.name).Append(0, msf(avg))
		r.series("cand/"+v.name).Append(0, float64(stats.Candidates)/n)
		r.series("dist/"+v.name).Append(0, float64(stats.PairDistCalcs)/n)
	}
	r.Table.Fprint(cfg.Out)
	return r, nil
}

// pruneQuery is COM with some of Algorithm 6's pruning rules switched off.
type pruneQuery struct {
	core.DivQuery
	prune core.PruneOptions
}

// Answer is DivQuery.Answer under the query's pruning rules.
func (q pruneQuery) Answer(ctx context.Context, src core.ArrivalSource, net ccam.Network, res *core.Result) (err error) {
	*res, err = core.DiversifyArrivals(ctx, src, net, q.DivQuery, q.prune)
	return err
}

// AblationPartition compares the greedy edge partitioner against the exact
// dynamic program of Algorithm 4: construction time and the resulting
// false-hit counts on the same workload. The paper reports the greedy up
// to two orders of magnitude faster at similar quality.
func AblationPartition(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	r := newResult("Ablation: greedy vs DP edge partitioning (SF)",
		"method", "partition build ms", "false hits")
	ds, err := dataset.GeneratePreset(dataset.PresetSF, cfg.Scale, cfg.Seed)
	if err != nil {
		return nil, err
	}
	ws, err := dataset.GenerateWorkload(ds.Objects, ds.VocabSize, dataset.WorkloadConfig{
		NumQueries: cfg.Queries, Keywords: 3, Seed: cfg.Seed + 67,
	})
	if err != nil {
		return nil, err
	}
	for _, m := range []struct {
		name      string
		partition sig.Partitioner
	}{
		{"greedy", sig.PartitionGreedy},
		{"DP (Algorithm 4)", baselines.PartitionDP},
	} {
		sys, err := harness.Build(ds, nil, harness.Options{})
		if err != nil {
			return nil, err
		}
		if err := sys.Attach(harness.KindSIFP, baselines.Variant(harness.KindSIFP, ds.Objects, ds.VocabSize,
			func(so *sig.Options) { so.Partition = m.partition })); err != nil {
			return nil, err
		}
		hits, err := falseHits(sys, harness.KindSIFP, sys.SIFP, ws)
		if err != nil {
			return nil, err
		}
		build := sys.BuildTime[harness.KindSIFP]
		r.addRow(m.name, ms(build), i64(hits))
		r.series("build/"+m.name).Append(0, msf(build))
		r.series("hits/"+m.name).Append(0, float64(hits))
	}
	r.Table.Fprint(cfg.Out)
	return r, nil
}

// AblationDijkstra quantifies the paper's Section 3.2 choice of
// accumulating Dijkstra distances during the INE, against the original
// formulation where each encountered object's network distance is
// computed from scratch.
func AblationDijkstra(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	r := newResult("Ablation: accumulated vs per-object Dijkstra (NA)",
		"variant", "avg query ms", "avg dijkstra runs")
	ds, err := dataset.GeneratePreset(dataset.PresetNA, cfg.Scale, cfg.Seed)
	if err != nil {
		return nil, err
	}
	sys, err := harness.Build(ds, []harness.IndexKind{harness.KindSIF}, harness.Options{IOLatency: cfg.IOLatency})
	if err != nil {
		return nil, err
	}
	ws, err := dataset.GenerateWorkload(ds.Objects, ds.VocabSize, dataset.WorkloadConfig{
		NumQueries: cfg.Queries, Keywords: 3, Seed: cfg.Seed + 71,
	})
	if err != nil {
		return nil, err
	}
	loader, err := sys.Loader(harness.KindSIF)
	if err != nil {
		return nil, err
	}

	// Accumulated (the paper's Algorithm 3): one expansion per query.
	if err := sys.ResetIO(); err != nil {
		return nil, err
	}
	var accElapsed time.Duration
	for _, wq := range ws {
		// Wall-clock latency measurement, not a data source.
		start := time.Now()
		search, err := core.NewSKSearch(context.Background(), sys.Net, loader, harness.SKQueryOf(wq))
		if err != nil {
			return nil, err
		}
		if _, err := search.All(); err != nil {
			return nil, err
		}
		accElapsed += time.Since(start)
	}
	r.addRow("accumulated (Alg. 3)", ms(accElapsed/time.Duration(len(ws))), "1.0")
	r.series("accumulated").Append(0, msf(accElapsed/time.Duration(len(ws))))

	// Per-object: re-derive every candidate's distance with a fresh
	// bounded Dijkstra, as the original INE of [16] would.
	if err := sys.ResetIO(); err != nil {
		return nil, err
	}
	var perElapsed time.Duration
	var runs, queries int64
	for _, wq := range ws {
		// Wall-clock latency measurement, not a data source.
		start := time.Now()
		search, err := core.NewSKSearch(context.Background(), sys.Net, loader, harness.SKQueryOf(wq))
		if err != nil {
			return nil, err
		}
		cands, err := search.All()
		if err != nil {
			return nil, err
		}
		for _, c := range cands {
			var st core.SearchStats
			eng := core.NewDistEngine(context.Background(), sys.Net, wq.DeltaMax, &st)
			if _, err := eng.Dist(wq.Pos, c.Ref.Pos()); err != nil {
				return nil, err
			}
			runs += st.SourceDijkstra
		}
		perElapsed += time.Since(start)
		queries++
	}
	r.addRow("per-object (INE of [16])", ms(perElapsed/time.Duration(len(ws))),
		f1(float64(runs)/float64(queries)))
	r.series("per-object").Append(0, msf(perElapsed/time.Duration(len(ws))))
	r.Table.Fprint(cfg.Out)
	return r, nil
}

// AblationOracle measures the landmark distance oracle (docs/DISTANCE.md)
// on the diversification hot path: the same COM workload with the
// distance engine blind vs landmark-assisted. Results are bit-identical
// by construction (enforced here), so the only deltas are latency and
// traversal work — settled nodes per query is the headline number.
func AblationOracle(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	r := newResult("Ablation: landmark distance oracle (NA)",
		"variant", "avg query ms", "settled/query", "LB prunes", "UB hits", "A* pops saved")
	ds, err := dataset.GeneratePreset(dataset.PresetNA, cfg.Scale, cfg.Seed)
	if err != nil {
		return nil, err
	}
	variants := []struct {
		name string
		opts harness.Options
	}{
		{"blind engine", harness.Options{IOLatency: cfg.IOLatency}},
		{"oracle l=16", harness.Options{
			IOLatency: cfg.IOLatency,
			Oracle:    true, Landmarks: 16, OracleSeed: uint64(cfg.Seed) + 1,
		}},
		{"oracle l=64", harness.Options{
			IOLatency: cfg.IOLatency,
			Oracle:    true, Landmarks: 64, OracleSeed: uint64(cfg.Seed) + 1,
		}},
	}
	var baseline []float64 // per-query F of the blind run, for the identity check
	for vi, v := range variants {
		sys, err := harness.Build(ds, []harness.IndexKind{harness.KindSIF}, v.opts)
		if err != nil {
			return nil, err
		}
		// Wide radii are the oracle's regime: at the default δmax the
		// bounded ball holds a handful of nodes and there is nothing to
		// save (see docs/DISTANCE.md).
		ws, err := dataset.GenerateWorkload(ds.Objects, ds.VocabSize, dataset.WorkloadConfig{
			NumQueries: cfg.Queries, Keywords: 3, Seed: cfg.Seed + 73,
			DeltaMaxPerKeyword: 2500,
		})
		if err != nil {
			return nil, err
		}
		loader, err := sys.Loader(harness.KindSIF)
		if err != nil {
			return nil, err
		}
		if err := sys.ResetIO(); err != nil {
			return nil, err
		}
		var elapsed time.Duration
		var stats core.SearchStats
		for qi, wq := range ws {
			q := harness.DivQueryOf(wq, 10, 0.8)
			// Wall-clock latency measurement, not a data source.
			start := time.Now()
			res, err := core.Run(context.Background(), sys.SearchNet(), loader, q)
			if err != nil {
				return nil, err
			}
			elapsed += time.Since(start)
			stats.Add(res.Stats)
			if vi == 0 {
				baseline = append(baseline, res.F)
			} else if res.F != baseline[qi] {
				return nil, fmt.Errorf("oracle changed query %d: F=%v, blind F=%v",
					qi, res.F, baseline[qi])
			}
		}
		n := float64(len(ws))
		avg := elapsed / time.Duration(len(ws))
		r.addRow(v.name, ms(avg), f1(float64(stats.DistSettled)/n),
			i64(stats.OracleLBPrunes), i64(stats.OracleUBHits), i64(stats.OraclePopsSaved))
		r.series(v.name).Append(0, msf(avg))
		r.series("settled/"+v.name).Append(0, float64(stats.DistSettled)/n)
	}
	r.Table.Fprint(cfg.Out)
	return r, nil
}

// AblationCompaction measures the KD-tree signature compaction: compacted
// vs flat bitmap size on every dataset analogue.
func AblationCompaction(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	r := newResult("Ablation: KD-tree signature compaction",
		"dataset", "flat bitmap MB", "compacted MB", "ratio")
	for _, p := range allPresets {
		ds, err := dataset.GeneratePreset(p, cfg.Scale, cfg.Seed)
		if err != nil {
			return nil, err
		}
		sys, err := harness.Build(ds, []harness.IndexKind{harness.KindSIF}, harness.Options{})
		if err != nil {
			return nil, err
		}
		flat := sys.SIF.FlatSignatureBytes()
		compact := sys.SIF.SignatureBytes()
		ratio := 0.0
		if flat > 0 {
			ratio = float64(compact) / float64(flat)
		}
		r.addRow(string(p), mb(flat), mb(compact), fmt.Sprintf("%.2f", ratio))
		r.series("flat/"+string(p)).Append(0, float64(flat))
		r.series("compact/"+string(p)).Append(0, float64(compact))
	}
	r.Table.Fprint(cfg.Out)
	return r, nil
}

// AblationSelectivity quantifies the rarest-term-first probe order — an
// engineering improvement over the paper's query-order baseline. The
// served indexes probe rarest first; the other experiments keep the
// paper's order because rarest first narrows the IF-vs-SIF gap the
// evaluation reproduces: the inverted file alone recovers much of the
// signature's benefit when it can discover empty intersections after one
// cheap list read.
func AblationSelectivity(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	r := newResult("Ablation: rarest-term-first probe order (NA, l = 3)",
		"index", "probe order", "avg disk accesses", "avg query ms")
	ds, err := dataset.GeneratePreset(dataset.PresetNA, cfg.Scale, cfg.Seed)
	if err != nil {
		return nil, err
	}
	ws, err := dataset.GenerateWorkload(ds.Objects, ds.VocabSize, dataset.WorkloadConfig{
		NumQueries: cfg.Queries, Keywords: 3, Seed: cfg.Seed + 101,
	})
	if err != nil {
		return nil, err
	}
	for _, sel := range []bool{false, true} {
		sys, err := harness.Build(ds, nil, harness.Options{IOLatency: cfg.IOLatency})
		if err != nil {
			return nil, err
		}
		for _, kind := range fineIndexKinds {
			if err := sys.Attach(kind, baselines.Variant(kind, ds.Objects, ds.VocabSize,
				func(so *sig.Options) { so.SelectivityOrder = sel })); err != nil {
				return nil, err
			}
		}
		name := "query order"
		if sel {
			name = "rarest first"
		}
		for _, kind := range fineIndexKinds {
			avg, reads, _, err := runSKWorkload(sys, kind, ws)
			if err != nil {
				return nil, err
			}
			r.addRow(string(kind), name, f1(reads), ms(avg))
			r.series(fmt.Sprintf("io/%s/%s", kind, name)).Append(0, reads)
		}
	}
	r.Table.Fprint(cfg.Out)
	return r, nil
}

// AblationC1 reproduces the expected-cost analysis of Section 3.2: the
// number of objects loaded when objects live directly in the road-network
// storage (C1 = l_e·m, every object of every visited edge), in the plain
// inverted file (C2) and under the signature test (C3). The analysis
// predicts C1 > C2 > C3; the disk-access column shows the same ordering.
func AblationC1(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	r := newResult("Ablation: C1/C2/C3 object-loading analysis (NA, l = 3)",
		"structure", "avg records loaded", "avg disk accesses", "avg query ms")
	ds, err := dataset.GeneratePreset(dataset.PresetNA, cfg.Scale, cfg.Seed)
	if err != nil {
		return nil, err
	}
	sys, err := harness.Build(ds, []harness.IndexKind{harness.KindC1, harness.KindIF, harness.KindSIF},
		harness.Options{IOLatency: cfg.IOLatency})
	if err != nil {
		return nil, err
	}
	ws, err := dataset.GenerateWorkload(ds.Objects, ds.VocabSize, dataset.WorkloadConfig{
		NumQueries: cfg.Queries, Keywords: 3, Seed: cfg.Seed + 103,
	})
	if err != nil {
		return nil, err
	}
	sys.C1.ResetScanned()
	sys.Inv.ResetPostingsRead()
	sys.SIF.Index().ResetPostingsRead()
	records := func(kind harness.IndexKind) int64 {
		switch kind {
		case harness.KindC1:
			return sys.C1.ObjectsScanned()
		case harness.KindIF:
			return sys.Inv.PostingsRead()
		default:
			return sys.SIF.Index().PostingsRead()
		}
	}
	for _, kind := range []harness.IndexKind{harness.KindC1, harness.KindIF, harness.KindSIF} {
		before := records(kind)
		avg, reads, _, err := runSKWorkload(sys, kind, ws)
		if err != nil {
			return nil, err
		}
		loaded := float64(records(kind)-before) / float64(len(ws))
		label := map[harness.IndexKind]string{
			harness.KindC1:  "C1 objects-in-network",
			harness.KindIF:  "C2 inverted file",
			harness.KindSIF: "C3 signature + inverted",
		}[kind]
		r.addRow(label, f1(loaded), f1(reads), ms(avg))
		r.series("io/"+string(kind)).Append(0, reads)
		r.series("records/"+string(kind)).Append(0, loaded)
	}
	r.Table.Fprint(cfg.Out)
	return r, nil
}
