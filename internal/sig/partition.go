package sig

import "dsks/internal/obj"

// This file implements the edge-partitioning of Section 3.3: splitting the
// m objects of an edge into c+1 virtual edges so that the expected number
// of objects loaded due to false hits, ξ(Q, P), is minimized. The served
// build uses the greedy heuristic of the paper's experiments (up to two
// orders of magnitude faster than the exact dynamic program of Algorithm
// 4, at nearly the same quality); the experiments supply the DP through
// Options.Partition.

// Partitioner splits an edge's objects (their term sets, in visiting
// order) into at most maxCuts+1 virtual edges against the log. It returns
// the cut positions — the index of the last object of each virtual edge
// but the final one, strictly increasing — and the partition's ξ(Q, P).
type Partitioner func(objTerms [][]obj.TermID, log QueryLog, maxCuts int) ([]int, float64)

// RangeCosts evaluates every contiguous object range against the log:
// cost[i][j] is ξ(Q, [i..j]), the false-hit cost of the single virtual
// edge covering objects i..j (inclusive). A range incurs cost
// (j-i+1)·Pr(q) for each query q that passes the range's signature (every
// query term appears in some object of the range) without a true hit (no
// single object contains all query terms).
func RangeCosts(objTerms [][]obj.TermID, log QueryLog) [][]float64 {
	m := len(objTerms)
	cost := make([][]float64, m)
	for i := range cost {
		cost[i] = make([]float64, m)
	}
	for _, q := range log {
		if len(q.Terms) == 0 || q.Prob == 0 {
			continue
		}
		// perObjHas[x][ti] via bitmask over query terms (<= 64 terms).
		nt := len(q.Terms)
		if nt > 64 {
			nt = 64
		}
		full := uint64(1)<<uint(nt) - 1
		masks := make([]uint64, m)
		for x, ts := range objTerms {
			var mask uint64
			for ti := 0; ti < nt; ti++ {
				for _, t := range ts {
					if t == q.Terms[ti] {
						mask |= 1 << uint(ti)
						break
					}
				}
			}
			masks[x] = mask
		}
		for i := 0; i < m; i++ {
			var union uint64
			trueHit := false
			for j := i; j < m; j++ {
				union |= masks[j]
				if masks[j] == full {
					trueHit = true
				}
				if union == full && !trueHit {
					cost[i][j] += float64(j-i+1) * q.Prob
				}
			}
		}
	}
	return cost
}

// partitionCost sums the range costs of a partition given by cut positions
// (cuts[i] = index of the last object of virtual edge i; strictly
// increasing, each < m-1).
func partitionCost(cost [][]float64, cuts []int) float64 {
	total := 0.0
	start := 0
	for _, c := range cuts {
		total += cost[start][c]
		start = c + 1
	}
	total += cost[start][len(cost)-1]
	return total
}

// PartitionGreedy is the heuristic used in the paper's experiments:
// starting from the whole edge, it repeatedly adds the single cut that
// most reduces ξ(Q, P), up to maxCuts cuts, stopping early when no cut
// improves the cost. It returns the cut positions and the final cost.
func PartitionGreedy(objTerms [][]obj.TermID, log QueryLog, maxCuts int) ([]int, float64) {
	m := len(objTerms)
	if m == 0 {
		return nil, 0
	}
	if maxCuts > m-1 {
		maxCuts = m - 1
	}
	ranges := RangeCosts(objTerms, log)
	var cuts []int
	cost := ranges[0][m-1]
	used := make([]bool, m)
	for len(cuts) < maxCuts {
		bestPos, bestCost := -1, cost
		for p := 0; p < m-1; p++ {
			if used[p] {
				continue
			}
			trial := insertSorted(cuts, p)
			if c := partitionCost(ranges, trial); c < bestCost {
				bestPos, bestCost = p, c
			}
		}
		if bestPos < 0 {
			break
		}
		cuts = insertSorted(cuts, bestPos)
		used[bestPos] = true
		cost = bestCost
	}
	return cuts, cost
}

func insertSorted(cuts []int, p int) []int {
	out := make([]int, 0, len(cuts)+1)
	added := false
	for _, c := range cuts {
		if !added && p < c {
			out = append(out, p)
			added = true
		}
		out = append(out, c)
	}
	if !added {
		out = append(out, p)
	}
	return out
}

// PartitionCost evaluates ξ(Q, P) for an explicit partition (used by tests
// and the ablation benches).
func PartitionCost(objTerms [][]obj.TermID, log QueryLog, cuts []int) float64 {
	return partitionCost(RangeCosts(objTerms, log), cuts)
}
