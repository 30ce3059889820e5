package baselines

import (
	"math"
	"math/rand"
	"testing"

	"dsks/internal/obj"
	"dsks/internal/sig"
)

// randomEdge draws m objects of 1..maxTerms terms from a vocabulary of
// vocab, normalized.
func randomEdge(rng *rand.Rand, m, maxTerms, vocab int) [][]obj.TermID {
	objs := make([][]obj.TermID, m)
	for i := range objs {
		ts := make([]obj.TermID, 1+rng.Intn(maxTerms))
		for j := range ts {
			ts[j] = obj.TermID(rng.Intn(vocab))
		}
		objs[i] = obj.NormalizeTerms(ts)
	}
	return objs
}

// randomLog draws n equally likely two-term queries from a vocabulary of
// vocab.
func randomLog(rng *rand.Rand, n, vocab int) sig.QueryLog {
	var log sig.QueryLog
	for i := 0; i < n; i++ {
		ts := []obj.TermID{obj.TermID(rng.Intn(vocab)), obj.TermID(rng.Intn(vocab))}
		log = append(log, sig.LogQuery{Terms: obj.NormalizeTerms(ts), Prob: 1 / float64(n)})
	}
	return log
}

func TestPartitionDPOptimal(t *testing.T) {
	// The objects of the paper's Figure 3.
	objs := [][]obj.TermID{{0, 2}, {1, 2}, {0}, {0}, {0, 3}}
	log := sig.QueryLog{
		{Terms: []obj.TermID{0, 2}, Prob: 0.4},
		{Terms: []obj.TermID{1, 3}, Prob: 0.3},
		{Terms: []obj.TermID{0, 1}, Prob: 0.3},
	}
	cuts, cost := PartitionDP(objs, log, 1)
	// Exhaustive check over all single cuts.
	best := sig.PartitionCost(objs, log, nil)
	for c := 0; c < len(objs)-1; c++ {
		if v := sig.PartitionCost(objs, log, []int{c}); v < best {
			best = v
		}
	}
	if math.Abs(cost-best) > 1e-12 {
		t.Errorf("DP cost %v vs exhaustive %v (cuts %v)", cost, best, cuts)
	}
	if cuts, cost := PartitionDP(nil, nil, 3); cuts != nil || cost != 0 {
		t.Error("empty DP should be trivial")
	}
	if cuts, _ := PartitionDP(objs[:1], nil, 3); len(cuts) != 0 {
		t.Error("single object cannot be cut")
	}
}

// TestPartitionDPMatchesExhaustive: on random small instances the DP
// equals brute force over all cut sets.
func TestPartitionDPMatchesExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 25; trial++ {
		m := 4 + rng.Intn(4)
		objs := randomEdge(rng, m, 3, 5)
		log := randomLog(rng, 4, 5)
		maxCuts := 2
		_, dpCost := PartitionDP(objs, log, maxCuts)

		// Brute force over all cut subsets of size <= maxCuts.
		best := sig.PartitionCost(objs, log, nil)
		positions := m - 1
		for mask := 1; mask < 1<<positions; mask++ {
			var cuts []int
			for p := 0; p < positions; p++ {
				if mask&(1<<p) != 0 {
					cuts = append(cuts, p)
				}
			}
			if len(cuts) > maxCuts {
				continue
			}
			if v := sig.PartitionCost(objs, log, cuts); v < best {
				best = v
			}
		}
		if math.Abs(dpCost-best) > 1e-9 {
			t.Fatalf("trial %d: DP %v vs brute force %v", trial, dpCost, best)
		}
	}
}

// TestPartitionDPNeverWorseThanGreedy: with three cuts, on edges longer
// than brute force reaches, the DP is at least as good as the served
// greedy.
func TestPartitionDPNeverWorseThanGreedy(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 30; trial++ {
		m := 5 + rng.Intn(10)
		objs := randomEdge(rng, m, 3, 6)
		log := randomLog(rng, 5, 6)
		_, greedyCost := sig.PartitionGreedy(objs, log, 3)
		if _, dpCost := PartitionDP(objs, log, 3); dpCost > greedyCost+1e-9 {
			t.Fatalf("trial %d: DP %v worse than greedy %v", trial, dpCost, greedyCost)
		}
	}
}

// BenchmarkPartitionDP partitions the edge sig's BenchmarkPartitionGreedy
// does: 40 objects, three cuts.
func BenchmarkPartitionDP(b *testing.B) {
	objs := randomEdge(rand.New(rand.NewSource(3)), 40, 4, 12)
	log := randomLog(rand.New(rand.NewSource(4)), 8, 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PartitionDP(objs, log, 3)
	}
}
