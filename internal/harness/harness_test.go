package harness

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"dsks/internal/core"
	"dsks/internal/dataset"
	"dsks/internal/engine"
	"dsks/internal/experiments/baselines"
	"dsks/internal/sig"
)

func testDataset(t testing.TB, seed int64) (*dataset.Dataset, []dataset.Query) {
	t.Helper()
	ds, err := dataset.GeneratePreset(dataset.PresetSYN, 2000, seed)
	if err != nil {
		t.Fatal(err)
	}
	ws, err := dataset.GenerateWorkload(ds.Objects, ds.VocabSize, dataset.WorkloadConfig{
		NumQueries: 10, Keywords: 2, DeltaMaxPerKeyword: 800, Seed: seed + 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds, ws
}

func TestBuildAllKinds(t *testing.T) {
	ds, _ := testDataset(t, 1)
	sys, err := Build(ds, []IndexKind{KindIR, KindIF, KindSIF, KindSIFP, KindSIFG}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []IndexKind{KindIR, KindIF, KindSIF, KindSIFP, KindSIFG} {
		if _, err := sys.Loader(kind); err != nil {
			t.Errorf("loader %s missing: %v", kind, err)
		}
		if sys.IndexSize[kind] <= 0 {
			t.Errorf("index size %s not recorded", kind)
		}
	}
	if _, err := sys.Loader("NOPE"); err == nil {
		t.Error("unknown loader returned")
	}
}

func TestBuildUnknownKind(t *testing.T) {
	ds, _ := testDataset(t, 2)
	if _, err := Build(ds, []IndexKind{"WAT"}, Options{}); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestRunSKCollectsMetrics(t *testing.T) {
	ds, ws := testDataset(t, 3)
	sys, err := Build(ds, []IndexKind{KindSIF}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.ResetIO(); err != nil {
		t.Fatal(err)
	}
	var anyIO, anyCand bool
	var totalPops int64
	for _, wq := range ws {
		res, err := sys.RunSK(context.Background(), KindSIF, SKQueryOf(wq))
		if err != nil {
			t.Fatal(err)
		}
		if res.DiskReads > 0 {
			anyIO = true
		}
		if len(res.Candidates) > 0 {
			anyCand = true
		}
		totalPops += res.Stats.NodesPopped
	}
	if !anyIO {
		t.Error("no disk reads recorded across workload")
	}
	if !anyCand {
		t.Error("workload produced no candidates")
	}
	if totalPops == 0 {
		t.Error("no nodes popped across the whole workload")
	}
}

func TestRunDivBothAlgorithms(t *testing.T) {
	ds, ws := testDataset(t, 4)
	sys, err := Build(ds, []IndexKind{KindSIF}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []DivAlgo{AlgoSEQ, AlgoCOM} {
		res, err := sys.RunDiv(context.Background(), KindSIF, algo, DivQueryOf(ws[0], 6, 0.8))
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if res.Elapsed <= 0 {
			t.Errorf("%s: no elapsed time", algo)
		}
	}
}

// TestUnknownAlgorithmReadsNothing: an algorithm name that selects nothing
// is a bad option, rejected before any page is read.
func TestUnknownAlgorithmReadsNothing(t *testing.T) {
	ds, ws := testDataset(t, 4)
	sys, err := Build(ds, []IndexKind{KindSIF}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	reads := func() (n int64) {
		for _, p := range sys.Pools() {
			n += p.Stats().LogicalRead.Load()
		}
		return n
	}
	before := reads()
	if _, err := sys.RunDiv(context.Background(), KindSIF, "bogus", DivQueryOf(ws[0], 2, 0.5)); !errors.Is(err, engine.ErrBadOptions) {
		t.Errorf("diversified search with unknown algorithm: err = %v, want ErrBadOptions", err)
	}
	if after := reads(); after != before {
		t.Errorf("unknown algorithm read %d pages before being rejected", after-before)
	}
}

func TestIOLatencyInjection(t *testing.T) {
	ds, ws := testDataset(t, 5)
	fast, err := Build(ds, []IndexKind{KindSIF}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	slow, err := Build(ds, []IndexKind{KindSIF}, Options{IOLatency: 200 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := fast.ResetIO(); err != nil {
		t.Fatal(err)
	}
	if err := slow.ResetIO(); err != nil {
		t.Fatal(err)
	}
	var fastT, slowT time.Duration
	for _, wq := range ws {
		rf, err := fast.RunSK(context.Background(), KindSIF, SKQueryOf(wq))
		if err != nil {
			t.Fatal(err)
		}
		rs, err := slow.RunSK(context.Background(), KindSIF, SKQueryOf(wq))
		if err != nil {
			t.Fatal(err)
		}
		fastT += rf.Elapsed
		slowT += rs.Elapsed
	}
	if slowT <= fastT {
		t.Errorf("latency injection had no effect: %v vs %v", fastT, slowT)
	}
	// Every miss of the slow system waits out its 200µs seek, and a
	// query's misses are serial, so the queries took at least that long.
	reads := slow.DiskReads(KindSIF)
	if want := time.Duration(reads) * 200 * time.Microsecond; slowT < want {
		t.Errorf("%d misses at 200µs took %v in total, want at least %v", reads, slowT, want)
	}
}

func TestSIFPRealLogOption(t *testing.T) {
	ds, ws := testDataset(t, 6)
	real := baselines.NewRealLog(TermsOf(ws))
	sys, err := Build(ds, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Attach(KindSIFP, baselines.Variant(KindSIFP, ds.Objects, ds.VocabSize,
		func(so *sig.Options) { so.Log = real })); err != nil {
		t.Fatal(err)
	}
	res, err := sys.RunSK(context.Background(), KindSIFP, SKQueryOf(ws[0]))
	if err != nil {
		t.Fatal(err)
	}
	_ = res
}

func TestResetIOClearsCounters(t *testing.T) {
	ds, ws := testDataset(t, 7)
	sys, err := Build(ds, []IndexKind{KindIF}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RunSK(context.Background(), KindIF, SKQueryOf(ws[0])); err != nil {
		t.Fatal(err)
	}
	if err := sys.ResetIO(); err != nil {
		t.Fatal(err)
	}
	if got := sys.DiskReads(KindIF); got != 0 {
		t.Errorf("DiskReads after reset = %d", got)
	}
}

// TestOracleEquivalence: the landmark oracle only short-circuits work whose
// outcome its bounds prove, so every family, both diversified algorithms
// included, answers bit-identically with it on and off.
func TestOracleEquivalence(t *testing.T) {
	for _, tc := range []struct {
		preset dataset.Preset
		scale  int
	}{{dataset.PresetSYN, 1000}, {dataset.PresetNA, 500}} {
		ds, err := dataset.GeneratePreset(tc.preset, tc.scale, 42)
		if err != nil {
			t.Fatal(err)
		}
		ws, err := dataset.GenerateWorkload(ds.Objects, ds.VocabSize, dataset.WorkloadConfig{NumQueries: 10, Keywords: 2, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		base, err := Build(ds, []IndexKind{KindSIF}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		assisted, err := Build(ds, []IndexKind{KindSIF}, Options{Oracle: true, Landmarks: 8, OracleSeed: 7})
		if err != nil {
			t.Fatal(err)
		}
		if assisted.Oracle == nil {
			t.Fatal("assisted system has no oracle")
		}
		ctx := context.Background()
		for qi, w := range ws {
			sk := SKQueryOf(w)
			div := core.DivQuery{SKQuery: sk, K: 4, Lambda: 0.5}
			for _, f := range []struct {
				name string
				run  func(*System) (engine.Result, error)
			}{
				{"SEQ", func(s *System) (engine.Result, error) { return s.RunDiv(ctx, KindSIF, AlgoSEQ, div) }},
				{"COM", func(s *System) (engine.Result, error) { return s.RunDiv(ctx, KindSIF, AlgoCOM, div) }},
				{"search", func(s *System) (engine.Result, error) { return s.RunSK(ctx, KindSIF, sk) }},
				{"knn", func(s *System) (engine.Result, error) {
					return s.RunKNN(ctx, KindSIF, core.KNNQuery{Pos: w.Pos, Terms: w.Terms, K: 5})
				}},
				{"ranked", func(s *System) (engine.Result, error) {
					return s.RunRanked(ctx, KindSIF, core.RankedQuery{Pos: w.Pos, Terms: w.Terms, K: 5, Alpha: 0.5, DeltaMax: w.DeltaMax})
				}},
				{"collective", func(s *System) (engine.Result, error) {
					return s.RunCollective(ctx, KindSIF, core.CollectiveQuery{Pos: w.Pos, Terms: w.Terms, DeltaMax: w.DeltaMax})
				}},
			} {
				tag := fmt.Sprintf("%s/%d query %d, %s", tc.preset, tc.scale, qi, f.name)
				want, err := f.run(base)
				if err != nil {
					t.Fatalf("%s: %v", tag, err)
				}
				got, err := f.run(assisted)
				if err != nil {
					t.Fatalf("%s with the oracle: %v", tag, err)
				}
				payload := func(r engine.Result) engine.Result {
					return engine.Result{Candidates: r.Candidates, F: r.F, Ranked: r.Ranked, Collective: r.Collective}
				}
				if !reflect.DeepEqual(payload(want), payload(got)) {
					t.Fatalf("%s: the answer diverges with the oracle on\nwant %+v\ngot  %+v", tag, payload(want), payload(got))
				}
			}
		}
	}
}
