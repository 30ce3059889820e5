package experiments

import (
	"context"

	"fmt"

	"dsks/internal/dataset"
	"dsks/internal/experiments/baselines"
	"dsks/internal/harness"
	"dsks/internal/sig"
	"dsks/internal/storage"
)

// fineIndexKinds drops IR, as the paper does after Figure 6.
var fineIndexKinds = []harness.IndexKind{harness.KindIF, harness.KindSIF, harness.KindSIFP}

// Fig7 reproduces Figure 7: the effect of the number of query keywords l
// (1–4) on the NA dataset — response time and disk accesses for IF, SIF
// and SIF-P.
func Fig7(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	r := newResult("Figure 7: effect of the number of query keywords (NA)",
		"l", "index", "query ms", "disk accesses")
	ds, err := dataset.GeneratePreset(dataset.PresetNA, cfg.Scale, cfg.Seed)
	if err != nil {
		return nil, err
	}
	sys, err := harness.Build(ds, fineIndexKinds, harness.Options{IOLatency: cfg.IOLatency})
	if err != nil {
		return nil, err
	}
	for l := 1; l <= 4; l++ {
		ws, err := dataset.GenerateWorkload(ds.Objects, ds.VocabSize, dataset.WorkloadConfig{
			NumQueries: cfg.Queries, Keywords: l, Seed: cfg.Seed + int64(l)*77,
		})
		if err != nil {
			return nil, err
		}
		for _, kind := range fineIndexKinds {
			avg, reads, _, err := runSKWorkload(sys, kind, ws)
			if err != nil {
				return nil, err
			}
			r.addRow(fmt.Sprintf("%d", l), string(kind), ms(avg), f1(reads))
			r.series("time/"+string(kind)).Append(float64(l), msf(avg))
			r.series("io/"+string(kind)).Append(float64(l), reads)
		}
	}
	r.Table.Fprint(cfg.Out)
	return r, nil
}

// fig8Ranges is the δmax sweep of Figure 8.
var fig8Ranges = []float64{250, 500, 1000, 1500}

// Fig8 reproduces Figure 8: the effect of the search range δmax — (a)
// response time on NA for IF/SIF/SIF-P, (b) candidate counts on all four
// datasets.
func Fig8(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	r := newResult("Figure 8: effect of the search range (δmax)",
		"δmax", "series", "value")
	// (a) response time on NA.
	ds, err := dataset.GeneratePreset(dataset.PresetNA, cfg.Scale, cfg.Seed)
	if err != nil {
		return nil, err
	}
	sys, err := harness.Build(ds, fineIndexKinds, harness.Options{IOLatency: cfg.IOLatency})
	if err != nil {
		return nil, err
	}
	for _, dm := range fig8Ranges {
		ws, err := dataset.GenerateWorkload(ds.Objects, ds.VocabSize, dataset.WorkloadConfig{
			NumQueries: cfg.Queries, Keywords: 3, Seed: cfg.Seed + 31,
		})
		if err != nil {
			return nil, err
		}
		for i := range ws {
			ws[i].DeltaMax = dm
		}
		for _, kind := range fineIndexKinds {
			avg, reads, _, err := runSKWorkload(sys, kind, ws)
			if err != nil {
				return nil, err
			}
			r.addRow(f1(dm), "time ms "+string(kind), ms(avg))
			r.series("time/"+string(kind)).Append(dm, msf(avg))
			r.series("io/"+string(kind)).Append(dm, reads)
		}
	}
	// (b) candidate counts on the four datasets (SIF).
	for _, p := range allPresets {
		dsb, err := dataset.GeneratePreset(p, cfg.Scale, cfg.Seed)
		if err != nil {
			return nil, err
		}
		sysb, err := harness.Build(dsb, []harness.IndexKind{harness.KindSIF}, harness.Options{})
		if err != nil {
			return nil, err
		}
		for _, dm := range fig8Ranges {
			ws, err := dataset.GenerateWorkload(dsb.Objects, dsb.VocabSize, dataset.WorkloadConfig{
				NumQueries: cfg.Queries, Keywords: 3, Seed: cfg.Seed + 32,
			})
			if err != nil {
				return nil, err
			}
			for i := range ws {
				ws[i].DeltaMax = dm
			}
			_, _, cands, err := runSKWorkload(sysb, harness.KindSIF, ws)
			if err != nil {
				return nil, err
			}
			r.addRow(f1(dm), "candidates "+string(p), f1(cands))
			r.series("cand/"+string(p)).Append(dm, cands)
		}
	}
	r.Table.Fprint(cfg.Out)
	return r, nil
}

// fig9Cuts is the cut budget sweep of Figure 9.
var fig9Cuts = []int{2, 4, 8, 16, 32}

// Fig9 reproduces Figure 9: space cost-effectiveness on SF — the number of
// false hits of SIF-P as the maximal cut budget grows, against SIF (no
// partitioning) and the group-based SIF-G given ten times SIF-P's
// signature space.
func Fig9(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	r := newResult("Figure 9: space cost-effectiveness (SF)",
		"max cuts", "index", "false hits", "sig/extra MB")
	ds, err := dataset.GeneratePreset(dataset.PresetSF, cfg.Scale, cfg.Seed)
	if err != nil {
		return nil, err
	}
	ws, err := dataset.GenerateWorkload(ds.Objects, ds.VocabSize, dataset.WorkloadConfig{
		NumQueries: cfg.Queries, Keywords: 3, Seed: cfg.Seed + 5,
	})
	if err != nil {
		return nil, err
	}

	// Baseline: plain SIF false hits (constant across the sweep).
	base, err := harness.Build(ds, []harness.IndexKind{harness.KindSIF}, harness.Options{})
	if err != nil {
		return nil, err
	}
	baseHits, err := falseHits(base, harness.KindSIF, base.SIF, ws)
	if err != nil {
		return nil, err
	}

	for _, cuts := range fig9Cuts {
		sysP, err := harness.Build(ds, []harness.IndexKind{harness.KindSIFP}, harness.Options{
			PartitionCuts: cuts,
		})
		if err != nil {
			return nil, err
		}
		pHits, err := falseHits(sysP, harness.KindSIFP, sysP.SIFP, ws)
		if err != nil {
			return nil, err
		}
		sigBytes := sysP.SIFP.SignatureBytes()
		r.addRow(fmt.Sprintf("%d", cuts), "SIF-P", i64(pHits), mb(sigBytes))
		r.series("SIF-P").Append(float64(cuts), float64(pHits))

		// SIF-G sized at ~10x the SIF-P signature budget.
		grpSys, extra, gHits, err := buildGroupAtBudget(ds, ws, 10*sigBytes)
		if err != nil {
			return nil, err
		}
		_ = grpSys
		r.addRow(fmt.Sprintf("%d", cuts), "SIF-G", i64(gHits), mb(extra))
		r.series("SIF-G").Append(float64(cuts), float64(gHits))

		r.addRow(fmt.Sprintf("%d", cuts), "SIF", i64(baseHits), "0")
		r.series("SIF").Append(float64(cuts), float64(baseHits))
	}
	r.Table.Fprint(cfg.Out)
	return r, nil
}

// falseHits replays the workload and returns the index's false-hit count.
func falseHits(sys *harness.System, kind harness.IndexKind, counted interface {
	Counters() sig.Counters
	ResetCounters()
}, ws []dataset.Query) (int64, error) {
	counted.ResetCounters()
	if err := sys.ResetIO(); err != nil {
		return 0, err
	}
	for _, wq := range ws {
		if _, err := sys.RunSK(context.Background(), kind, harness.SKQueryOf(wq)); err != nil {
			return 0, err
		}
	}
	return counted.Counters().FalseHits, nil
}

// buildGroupAtBudget grows SIF-G's top-x until its pairwise inverted lists
// consume at least the given space budget, then measures its false hits.
func buildGroupAtBudget(ds *dataset.Dataset, ws []dataset.Query, budget int64) (*harness.System, int64, int64, error) {
	if budget < int64(storage.PageSize) {
		budget = storage.PageSize
	}
	for topX := 8; ; topX *= 2 {
		sys, err := harness.Build(ds, nil, harness.Options{})
		if err != nil {
			return nil, 0, 0, err
		}
		if err := sys.Attach(harness.KindSIFG, baselines.SIFG(ds.Objects, ds.VocabSize, topX)); err != nil {
			return nil, 0, 0, err
		}
		extra := sys.Group.ExtraSizeBytes()
		if extra >= budget || topX >= 4096 {
			hits, err := falseHits(sys, harness.KindSIFG, sys.Group, ws)
			if err != nil {
				return nil, 0, 0, err
			}
			return sys, extra, hits, nil
		}
	}
}

// Fig10 reproduces Figure 10: sensitivity of SIF-P to the query log used
// at construction — SIF vs SIF-P-Rand vs SIF-P-Freq vs SIF-P-Real on the
// NA and TW analogues.
func Fig10(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	r := newResult("Figure 10: effect of the query log (NA, TW)",
		"dataset", "index", "query ms", "disk accesses")
	for _, p := range []dataset.Preset{dataset.PresetNA, dataset.PresetTW} {
		ds, err := dataset.GeneratePreset(p, cfg.Scale, cfg.Seed)
		if err != nil {
			return nil, err
		}
		ws, err := dataset.GenerateWorkload(ds.Objects, ds.VocabSize, dataset.WorkloadConfig{
			NumQueries: cfg.Queries, Keywords: 3, Seed: cfg.Seed + 17,
		})
		if err != nil {
			return nil, err
		}
		variants := []struct {
			name string
			kind harness.IndexKind
			log  sig.LogSource
		}{
			{"SIF", harness.KindSIF, nil},
			{"SIF-P-Rand", harness.KindSIFP, &sig.RandLog{L: 3, N: 16, Seed: 5}},
			{"SIF-P-Freq", harness.KindSIFP, &sig.FreqLog{L: 3, N: 16, Seed: 5}},
			{"SIF-P-Real", harness.KindSIFP, baselines.NewRealLog(harness.TermsOf(ws))},
		}
		for _, v := range variants {
			sys, err := harness.Build(ds, nil, harness.Options{IOLatency: cfg.IOLatency})
			if err != nil {
				return nil, err
			}
			if err := sys.Attach(v.kind, baselines.Variant(v.kind, ds.Objects, ds.VocabSize,
				func(so *sig.Options) { so.Log = v.log })); err != nil {
				return nil, err
			}
			avg, reads, _, err := runSKWorkload(sys, v.kind, ws)
			if err != nil {
				return nil, err
			}
			r.addRow(string(p), v.name, ms(avg), f1(reads))
			r.series(fmt.Sprintf("%s/%s", p, v.name)).Append(0, reads)
			r.series("time/"+v.name).Append(0, msf(avg))
		}
	}
	r.Table.Fprint(cfg.Out)
	return r, nil
}
