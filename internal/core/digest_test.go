package core_test

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"

	"dsks/internal/alt"
	"dsks/internal/ccam"
	"dsks/internal/core"
	"dsks/internal/dataset"
	"dsks/internal/harness"
	"dsks/internal/storage"
)

// comDigestFile holds one line per cell of TestCOMAnswerDigest's grid:
// world, oracle, λ, k, the digest of the cell's answers with their work
// flags, the cell's total pair distances, both recorded before COM
// skipped pairs by their upper bound (DivParams.PairBound), and the
// digest of the answers alone.
const comDigestFile = "testdata/com_digest.txt"

// TestCOMAnswerDigest pins Algorithm 6's answers over a (world, oracle, λ,
// k) grid to digests recorded from an earlier build. The answers digest
// takes per query the object IDs in order, their distances and the bits
// of F; no change may move it. The other digest adds Pruned and
// EarlyTerminate, which a change to the pruning rules moves and
// re-records with its reason. The pair skip never adds
// a pair distance, and at λ = ½ it skips none: there every pair's bound is
// 1/(k−1), the largest θ possible (k = 1 computes no pair at all).
//
// k = 1 stops at the first arrival, which the earlier build did not
// report as an early stop: its flag is checked here and digested as the
// earlier build's false.
func TestCOMAnswerDigest(t *testing.T) {
	want := readCOMDigests(t)
	dense, denseWs := denseWorld(t)
	small, smallWs := testWorld(t, 21)
	cells := 0
	for _, w := range []struct {
		name string
		sys  *harness.System
		ws   []dataset.Query
	}{{"NA400", dense, denseWs}, {"testWorld", small, smallWs}} {
		loader, err := w.sys.Loader(harness.KindSIF)
		if err != nil {
			t.Fatal(err)
		}
		pool := storage.NewBufferPool(storage.NewPageFile(), 256, nil)
		oracle, err := alt.Build(w.sys.DS.Graph, pool, alt.Config{Landmarks: 8, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, withOracle := range []bool{false, true} {
			var net ccam.Network = w.sys.Net
			onOff := "off"
			if withOracle {
				net, onOff = core.WithOracle(w.sys.Net, oracle, core.OracleCounters{}), "on"
			}
			for _, lambda := range []float64{0, 0.25, 0.5, 0.75, 0.8, 1} {
				for _, k := range []int{1, 2, 3, 5, 10} {
					cell := fmt.Sprintf("%s %s %v %d", w.name, onOff, lambda, k)
					h, ha := sha256.New(), sha256.New()
					put := func(v uint64) { h.Write(binary.LittleEndian.AppendUint64(nil, v)) }
					putA := func(v uint64) { ha.Write(binary.LittleEndian.AppendUint64(nil, v)) }
					pairs := int64(0)
					for qi, wq := range w.ws {
						res, err := core.Run(context.Background(), net, loader, harness.DivQueryOf(wq, k, lambda))
						if err != nil {
							t.Fatal(err)
						}
						early := res.Stats.EarlyTerminate
						if k == 1 {
							if early != (len(res.Candidates) > 0) || res.Stats.PairDistCalcs != 0 {
								t.Errorf("%s query %d: %d objects, early stop %v, %d pair distances; want the first arrival alone, at no pair distance",
									cell, qi, len(res.Candidates), early, res.Stats.PairDistCalcs)
							}
							early = false
						}
						put(uint64(len(res.Candidates)))
						putA(uint64(len(res.Candidates)))
						for _, c := range res.Candidates {
							put(uint64(c.Ref.ID))
							putA(uint64(c.Ref.ID))
							putA(math.Float64bits(c.Dist))
						}
						put(math.Float64bits(res.F))
						putA(math.Float64bits(res.F))
						put(uint64(res.Stats.Pruned))
						put(boolBit(early))
						pairs += res.Stats.PairDistCalcs
					}
					cells++
					rec, ok := want[cell]
					if !ok {
						t.Errorf("%s: not in %s", cell, comDigestFile)
						continue
					}
					if got := hex.EncodeToString(ha.Sum(nil)[:8]); got != rec.answers {
						t.Errorf("%s: answers digest %s, recorded %s", cell, got, rec.answers)
					}
					if got := hex.EncodeToString(h.Sum(nil)[:8]); got != rec.digest {
						t.Errorf("%s: answers and work flags digest %s, recorded %s", cell, got, rec.digest)
					}
					if pairs > rec.pairs || (lambda == 0.5 && k > 1 && pairs != rec.pairs) {
						t.Errorf("%s: %d pair distances, recorded %d", cell, pairs, rec.pairs)
					}
				}
			}
		}
	}
	if cells != len(want) {
		t.Errorf("ran %d cells, %s has %d", cells, comDigestFile, len(want))
	}
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

type comDigest struct {
	digest  string
	pairs   int64
	answers string
}

// readCOMDigests returns the recorded cells of comDigestFile by their
// "world oracle λ k" key; comments and blank lines are left out.
func readCOMDigests(t *testing.T) map[string]comDigest {
	t.Helper()
	f, err := os.Open(comDigestFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	cells := make(map[string]comDigest)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fs := strings.Fields(line)
		if len(fs) != 7 {
			t.Fatalf("%s: bad line %q", comDigestFile, line)
		}
		pairs, err := strconv.ParseInt(fs[5], 10, 64)
		if err != nil {
			t.Fatalf("%s: bad line %q: %v", comDigestFile, line, err)
		}
		cells[strings.Join(fs[:4], " ")] = comDigest{digest: fs[4], pairs: pairs, answers: fs[6]}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return cells
}
