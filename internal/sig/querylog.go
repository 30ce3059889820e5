package sig

import (
	"math/rand"
	"sort"

	"dsks/internal/graph"
	"dsks/internal/obj"
)

// LogQuery is one entry of a query log: a keyword set with the probability
// that a query with exactly these keywords is issued.
type LogQuery struct {
	Terms []obj.TermID
	Prob  float64
}

// QueryLog is the workload model the edge partitioner optimizes against
// (the ξ(Q, P) of Section 3.3).
type QueryLog []LogQuery

// LogSource produces the query log used to partition a given edge.
// objTerms are the term sets of the edge's objects in visiting order.
// FreqLog (SIF-P-Freq, the served default) and RandLog (SIF-P-Rand) are
// two of the paper's Figure 10 variants; the experiments replay the real
// workload (SIF-P-Real) themselves.
type LogSource interface {
	ForEdge(e graph.EdgeID, objTerms [][]obj.TermID) QueryLog
}

// FreqLog generates a per-edge synthetic log under the paper's default
// assumption (Remark 1): a frequent keyword is more likely to appear as a
// query keyword. Keywords are drawn from the edge's own objects, weighted
// by their local frequency.
type FreqLog struct {
	L    int   // keywords per generated query
	N    int   // queries to generate per edge
	Seed int64 // generation seed (per-edge offset keeps edges decorrelated)
}

// ForEdge implements LogSource.
func (f *FreqLog) ForEdge(e graph.EdgeID, objTerms [][]obj.TermID) QueryLog {
	return sampleEdgeLog(e, objTerms, f.L, f.N, f.Seed, true)
}

// RandLog generates a per-edge log by choosing keywords uniformly from the
// edge's objects, ignoring frequency (the paper's SIF-P-Rand, whose
// keyword distribution deviates most from the real load).
type RandLog struct {
	L    int
	N    int
	Seed int64
}

// ForEdge implements LogSource.
func (r *RandLog) ForEdge(e graph.EdgeID, objTerms [][]obj.TermID) QueryLog {
	return sampleEdgeLog(e, objTerms, r.L, r.N, r.Seed, false)
}

func sampleEdgeLog(e graph.EdgeID, objTerms [][]obj.TermID, l, n int, seed int64, weighted bool) QueryLog {
	freq := make(map[obj.TermID]int)
	var terms []obj.TermID
	for _, ts := range objTerms {
		for _, t := range ts {
			if freq[t] == 0 {
				terms = append(terms, t)
			}
			freq[t]++
		}
	}
	if len(terms) == 0 || l <= 0 || n <= 0 {
		return nil
	}
	sort.Slice(terms, func(i, j int) bool { return terms[i] < terms[j] })
	total := 0
	for _, t := range terms {
		total += freq[t]
	}
	rng := rand.New(rand.NewSource(seed + int64(e)*1_000_003))
	draw := func() obj.TermID {
		if !weighted {
			return terms[rng.Intn(len(terms))]
		}
		x := rng.Intn(total)
		for _, t := range terms {
			x -= freq[t]
			if x < 0 {
				return t
			}
		}
		return terms[len(terms)-1]
	}
	sets := make([][]obj.TermID, n)
	for i := range sets {
		q := make([]obj.TermID, 0, l)
		for len(q) < l && len(q) < len(terms) {
			t := draw()
			if !containsTerm(q, t) {
				q = append(q, t)
			}
		}
		sets[i] = obj.NormalizeTerms(q)
	}
	return LogOf(sets)
}

// LogOf tallies normalized keyword sets into a query log: one entry per
// distinct set, with its share of the sets as its probability, in the
// order of the sets' byte keys.
func LogOf(sets [][]obj.TermID) QueryLog {
	counts := make(map[string]int)
	distinct := make(map[string][]obj.TermID)
	for _, ts := range sets {
		k := termKey(ts)
		counts[k]++
		distinct[k] = ts
	}
	keys := make([]string, 0, len(distinct))
	for k := range distinct {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var out QueryLog
	for _, k := range keys {
		out = append(out, LogQuery{Terms: distinct[k], Prob: float64(counts[k]) / float64(len(sets))})
	}
	return out
}

func containsTerm(ts []obj.TermID, t obj.TermID) bool {
	for _, x := range ts {
		if x == t {
			return true
		}
	}
	return false
}

func termKey(ts []obj.TermID) string {
	b := make([]byte, 0, len(ts)*4)
	for _, t := range ts {
		b = append(b, byte(t), byte(t>>8), byte(t>>16), byte(t>>24))
	}
	return string(b)
}
