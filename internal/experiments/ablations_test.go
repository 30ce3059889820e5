package experiments

import (
	"reflect"
	"testing"
)

func TestAblationPruningShape(t *testing.T) {
	r, err := AblationPruning(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	// Full COM must not see more candidates than the unpruned variant.
	full := r.Series["cand/COM (both rules)"].Mean()
	none := r.Series["cand/COM no pruning"].Mean()
	if full > none+1e-9 {
		t.Errorf("full COM saw %v candidates vs unpruned %v", full, none)
	}
	// Disabling early-stop must not reduce the candidate count below the
	// full variant's.
	noStop := r.Series["cand/COM no early-stop"].Mean()
	if noStop < full-1e-9 {
		t.Errorf("no-early-stop saw fewer candidates (%v) than full COM (%v)", noStop, full)
	}
	// The object-prune rule reduces pairwise distance computations when
	// disabled early-stop forces long streams; at minimum the unpruned
	// variant must not do fewer distance calcs than full COM.
	fullDist := r.Series["dist/COM (both rules)"].Mean()
	noneDist := r.Series["dist/COM no pruning"].Mean()
	if fullDist > noneDist+1e-9 {
		t.Errorf("full COM did more distance calcs (%v) than unpruned (%v)", fullDist, noneDist)
	}
}

func TestAblationPartitionShape(t *testing.T) {
	r, err := AblationPartition(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	greedyHits := r.Series["hits/greedy"].Mean()
	dpHits := r.Series["hits/DP (Algorithm 4)"].Mean()
	// DP is exact w.r.t. its training log: it should not lose badly to
	// the greedy on the real workload (both trained on the same model).
	if dpHits > greedyHits*1.5+5 {
		t.Errorf("DP false hits %v far above greedy %v", dpHits, greedyHits)
	}
	// And the greedy must be quality-competitive: not more than 50% above
	// DP on this workload (the paper reports similar I/O for both).
	if greedyHits > dpHits*1.5+5 {
		t.Errorf("greedy false hits %v far above DP %v", greedyHits, dpHits)
	}
}

func TestAblationDijkstraShape(t *testing.T) {
	r, err := AblationDijkstra(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	acc := r.Series["accumulated"].Mean()
	per := r.Series["per-object"].Mean()
	if per < acc {
		t.Logf("warning: per-object recomputation (%v ms) beat accumulated (%v ms) — tiny-scale noise", per, acc)
	}
}

func TestAblationCompactionShape(t *testing.T) {
	r, err := AblationCompaction(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"NA", "SF", "SYN", "TW"} {
		flat := r.Series["flat/"+p].Mean()
		compact := r.Series["compact/"+p].Mean()
		if compact > flat {
			t.Errorf("%s: compacted signatures (%v B) larger than flat bitmaps (%v B)", p, compact, flat)
		}
	}
}

func TestExtraBufferSweepShape(t *testing.T) {
	r, err := ExtraBufferSweep(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	io := r.Series["io"]
	if len(io.Y) < 2 {
		t.Fatal("sweep too short")
	}
	// A bigger buffer never costs more I/O on this read-only workload.
	if io.Y[len(io.Y)-1] > io.Y[0]+1e-9 {
		t.Errorf("disk accesses grew with the buffer: %v", io.Y)
	}
}

func TestExtraQualityShape(t *testing.T) {
	r, err := ExtraQuality(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	// Every random stream derives from the configured seed: a second run
	// reproduces every series.
	again, err := ExtraQuality(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r.Series, again.Series) {
		t.Errorf("two runs with one seed differ:\n%v\n%v", r.Series, again.Series)
	}
	seq, ok1 := r.Series["f/SEQ"]
	nearest, ok2 := r.Series["f/nearest-k"]
	random, ok3 := r.Series["f/random-k"]
	if !ok1 || !ok2 || !ok3 {
		t.Skip("too few multi-candidate queries at test scale")
	}
	// The diversified greedy must beat both trivial strategies on f(S).
	if seq.Mean() < nearest.Mean()-1e-9 {
		t.Errorf("greedy f(S) %v below nearest-k %v", seq.Mean(), nearest.Mean())
	}
	if seq.Mean() < random.Mean()-1e-9 {
		t.Errorf("greedy f(S) %v below random-k %v", seq.Mean(), random.Mean())
	}
	// And spread its picks further apart than the nearest-k.
	if r.Series["minpair/SEQ"].Mean() < r.Series["minpair/nearest-k"].Mean()-1e-9 {
		t.Errorf("greedy closest-pair %v below nearest-k %v",
			r.Series["minpair/SEQ"].Mean(), r.Series["minpair/nearest-k"].Mean())
	}
	// SEQ and COM agree.
	if com := r.Series["f/COM"]; com.Mean() != seq.Mean() {
		t.Errorf("COM f %v != SEQ f %v", com.Mean(), seq.Mean())
	}
}

func TestAblationSelectivityShape(t *testing.T) {
	r, err := AblationSelectivity(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	// Rarest-first never does more I/O than query order, for any index.
	for _, kind := range []string{"IF", "SIF", "SIF-P"} {
		ordered := r.Series["io/"+kind+"/rarest first"].Mean()
		plain := r.Series["io/"+kind+"/query order"].Mean()
		if ordered > plain+1e-9 {
			t.Errorf("%s: rarest-first I/O %v above query-order %v", kind, ordered, plain)
		}
	}
}

func TestAblationC1Shape(t *testing.T) {
	r, err := AblationC1(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	// The Section 3.2 ordering holds on records loaded: C1 > C2 >= C3
	// (C1's page accesses can be low at small scale since a dozen objects
	// share a page; the analysis counts loaded records).
	c1 := r.Series["records/C1"].Mean()
	c2 := r.Series["records/IF"].Mean()
	c3 := r.Series["records/SIF"].Mean()
	if c1 <= c2 {
		t.Errorf("C1 records %v not above C2 %v", c1, c2)
	}
	if c3 > c2+1e-9 {
		t.Errorf("C3 records %v above C2 %v", c3, c2)
	}
}
