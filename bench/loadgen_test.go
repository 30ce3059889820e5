package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"dsks"
)

func TestOpsArePureFunctionOfSeed(t *testing.T) {
	a := genOps(readMix, 2000, 12000, 7)
	b := genOps(readMix, 2000, 12000, 7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two op sequences")
	}
	if c := genOps(readMix, 2000, 12000, 11); reflect.DeepEqual(a, c) {
		t.Fatal("seeds 7 and 11 gave the same op sequence")
	}
	// The traced run replays a prefix of what the end-to-end run measures.
	if short := genOps(readMix, 2000, 3000, 7); !reflect.DeepEqual(short, a[:3000]) {
		t.Fatal("a shorter sequence is not a prefix of a longer one")
	}
}

func TestKindSplitMatchesMix(t *testing.T) {
	const n = 36000
	total := 0
	for _, wgt := range readMix {
		total += wgt
	}
	for _, upto := range []int{n, 2000, 500} {
		var got [numKinds]int
		for _, o := range genOps(readMix, 2000, n, 7)[:upto] {
			got[o.kind]++
		}
		for kind, wgt := range readMix {
			want := float64(wgt) / float64(total)
			if share := float64(got[kind]) / float64(upto); math.Abs(share-want) > 0.02 {
				t.Errorf("first %d ops: %s is %.3f of the ops, the mix says %.3f", upto, kindNames[kind], share, want)
			}
		}
	}
	for _, o := range genOps(divOnly, 2000, 100, 7) {
		if o.kind != kindDiversified {
			t.Fatalf("diversified-only mix produced a %s op", kindNames[o.kind])
		}
	}
}

// The old hammer built one request per unit of mix weight and replayed
// those ten for ever, whatever -distinct said. A run must reach as many
// distinct queries as it has ops, up to the whole pool.
func TestRunCoversQueryPool(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl declared
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		n := passOps(w, decl.RunSeconds, defaultPasses) * defaultPasses
		distinct := make(map[int32]bool)
		for _, o := range genOps(w.mix, w.queries, n, 7) {
			if o.query < 0 || int(o.query) >= w.queries {
				t.Fatalf("%s: query index %d outside the pool of %d", w.name, o.query, w.queries)
			}
			distinct[o.query] = true
		}
		if want := min(n, w.queries); len(distinct) != want || want < 1500 {
			t.Errorf("%s: a run of %d ops reaches %d distinct queries, want %d (and at least 1500)", w.name, n, len(distinct), want)
		}
	}
}

func TestPercentileAndSpread(t *testing.T) {
	sorted := make([]float64, 100)
	for i := range sorted {
		sorted[i] = float64(i + 1) // 1..100
	}
	for _, c := range []struct{ p, want float64 }{{0.50, 50}, {0.95, 95}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := percentile(sorted, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{3, 9}, 0.5); got != 3 {
		t.Errorf("nearest rank of p50 over two samples = %v, want the lower one", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median(9,1,5) = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median(4,1,3,2) = %v", got)
	}
	if got := spread([]float64{90, 100, 110}); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("spread(90,100,110) = %v, want 0.2", got)
	}
	if got := spread([]float64{5}); got != 0 {
		t.Errorf("spread of one pass = %v", got)
	}
}

func TestCheckResponse(t *testing.T) {
	w := workload{k: 2}
	q := dsks.WorkloadQuery{DeltaMax: 100}
	body := func(kind, payload string) []byte {
		return []byte(`{"kind":"` + kind + `",` + payload + `,"elapsedMicros":12,"diskReads":3}`)
	}
	good, err := checkResponse(w, op{kind: kindSearch}, q,
		body("search", `"candidates":[{"id":1,"dist":5},{"id":2,"dist":5},{"id":3,"dist":99.5}]`))
	if err != nil {
		t.Fatalf("a well-formed search answer failed: %v", err)
	}
	if good.reads != 3 || good.elapsed.Microseconds() != 12 {
		t.Errorf("envelope read as %+v", good)
	}
	other, err := checkResponse(w, op{kind: kindSearch}, q, body("search", `"candidates":[{"id":1,"dist":5}]`))
	if err != nil || other.digest == good.digest {
		t.Errorf("different answers share a digest (err %v)", err)
	}
	// The chosen set of a diversified op digests the same in any order.
	d1, err1 := checkResponse(w, op{kind: kindDiversified}, q, body("diversified", `"candidates":[{"id":9,"dist":50},{"id":4,"dist":2}]`))
	d2, err2 := checkResponse(w, op{kind: kindDiversified}, q, body("diversified", `"candidates":[{"id":4,"dist":2},{"id":9,"dist":50}]`))
	if err1 != nil || err2 != nil || d1.digest != d2.digest {
		t.Errorf("diversified set digests differ by order: %v %v", err1, err2)
	}
	for name, c := range map[string]struct {
		kind uint8
		body []byte
		want string
	}{
		"not JSON":       {kindSearch, []byte(`{"kind":`), "decoding"},
		"wrong kind":     {kindSearch, body("knn", `"candidates":[]`), "kind"},
		"out of order":   {kindSearch, body("search", `"candidates":[{"id":1,"dist":7},{"id":2,"dist":6}]`), "distance order"},
		"beyond radius":  {kindKNN, body("knn", `"candidates":[{"id":1,"dist":100.5}]`), "outside radius"},
		"more than k":    {kindKNN, body("knn", `"candidates":[{"id":1,"dist":1},{"id":2,"dist":2},{"id":3,"dist":3}]`), "k=2"},
		"score order":    {kindRanked, body("ranked", `"ranked":[{"id":1,"dist":1,"score":0.2},{"id":2,"dist":2,"score":0.9}]`), "score order"},
		"no group":       {kindCollective, body("collective", `"candidates":[]`), "collective"},
		"partial result": {kindSearch, body("search", `"partial":true`), "partial"},
	} {
		_, err := checkResponse(w, op{kind: c.kind}, q, c.body)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got error %v, want one mentioning %q", name, err, c.want)
		}
	}
}

// BENCHMARK.json is what the driver reads; the workload table is what
// runs. They must name the same workloads for the same reasons.
func TestBenchmarkJSONMatchesWorkloads(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name, Why string }
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(decl.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if d := decl.Workloads[i]; d.Name != w.name || d.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)", i, d.Name, d.Why, w.name, w.why)
		}
	}
}
