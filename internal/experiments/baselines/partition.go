package baselines

import (
	"math"

	"dsks/internal/obj"
	"dsks/internal/sig"
)

// PartitionDP finds the partition of the edge's objects with at most
// maxCuts cuts minimizing ξ(Q, P), via the dynamic program of Algorithm 4
// (Equations 7–9). It returns the cut positions (index of the last object
// of each virtual edge except the final one) and the optimal cost.
// Complexity is O(c²·m³); intended for small edges and for validating the
// greedy heuristic. It is a sig.Partitioner.
func PartitionDP(objTerms [][]obj.TermID, log sig.QueryLog, maxCuts int) ([]int, float64) {
	m := len(objTerms)
	if m == 0 {
		return nil, 0
	}
	if maxCuts > m-1 {
		maxCuts = m - 1
	}
	if maxCuts < 0 {
		maxCuts = 0
	}
	cost := sig.RangeCosts(objTerms, log)

	// best[c][i][j] = minimal cost partitioning objects i..j into c+1
	// virtual edges; cut[c][i][j] and leftCuts[c][i][j] record the choice.
	best := make([][][]float64, maxCuts+1)
	cutAt := make([][][]int, maxCuts+1)
	leftC := make([][][]int, maxCuts+1)
	for c := 0; c <= maxCuts; c++ {
		best[c] = make([][]float64, m)
		cutAt[c] = make([][]int, m)
		leftC[c] = make([][]int, m)
		for i := 0; i < m; i++ {
			best[c][i] = make([]float64, m)
			cutAt[c][i] = make([]int, m)
			leftC[c][i] = make([]int, m)
			for j := 0; j < m; j++ {
				if c == 0 {
					if j >= i {
						best[c][i][j] = cost[i][j]
					}
					continue
				}
				best[c][i][j] = math.Inf(1)
			}
		}
	}
	for c := 1; c <= maxCuts; c++ {
		for i := 0; i < m; i++ {
			for j := i; j < m; j++ {
				if j-i < c { // not enough cut positions (Eq. 8's ∞ case)
					continue
				}
				bv, bk, bvleft := math.Inf(1), -1, 0
				// Q*(i,j,k,c): one cut fixed at object k (Eq. 8), then
				// exhaust all fixed positions (Eq. 9).
				for k := i; k < j; k++ {
					for v := 0; v <= c-1; v++ {
						if k-i < v || j-k-1 < c-v-1 {
							continue
						}
						cost := best[v][i][k] + best[c-v-1][k+1][j]
						if cost < bv {
							bv, bk, bvleft = cost, k, v
						}
					}
				}
				best[c][i][j] = bv
				cutAt[c][i][j] = bk
				leftC[c][i][j] = bvleft
			}
		}
	}
	// Since adding cuts never increases cost, the best over <= maxCuts is
	// reported (partitioning with fewer cuts when extra cuts don't help).
	bestC := 0
	for c := 1; c <= maxCuts; c++ {
		if best[c][0][m-1] < best[bestC][0][m-1] {
			bestC = c
		}
	}
	var cuts []int
	var collect func(i, j, c int)
	collect = func(i, j, c int) {
		if c == 0 {
			return
		}
		k, v := cutAt[c][i][j], leftC[c][i][j]
		collect(i, k, v)
		cuts = append(cuts, k)
		collect(k+1, j, c-v-1)
	}
	collect(0, m-1, bestC)
	return cuts, best[bestC][0][m-1]
}
