package baselines

import (
	"dsks/internal/graph"
	"dsks/internal/obj"
	"dsks/internal/sig"
)

// RealLog replays an actual query workload: the exact keyword sets of the
// future query load (the paper's SIF-P-Real upper bound). Queries that
// cannot touch the edge (a keyword absent from all its objects) are
// filtered out, since they fail the whole-edge signature and contribute
// zero cost to every partition.
type RealLog struct {
	Queries sig.QueryLog
}

// NewRealLog builds a RealLog from raw keyword sets, weighting each
// distinct set by its frequency in the workload.
func NewRealLog(keywordSets [][]obj.TermID) *RealLog {
	sets := make([][]obj.TermID, len(keywordSets))
	for i, ks := range keywordSets {
		sets[i] = obj.NormalizeTerms(append([]obj.TermID(nil), ks...))
	}
	return &RealLog{Queries: sig.LogOf(sets)}
}

// ForEdge implements sig.LogSource.
func (r *RealLog) ForEdge(_ graph.EdgeID, objTerms [][]obj.TermID) sig.QueryLog {
	present := make(map[obj.TermID]bool)
	for _, ts := range objTerms {
		for _, t := range ts {
			present[t] = true
		}
	}
	var out sig.QueryLog
	for _, q := range r.Queries {
		all := true
		for _, t := range q.Terms {
			if !present[t] {
				all = false
				break
			}
		}
		if all {
			out = append(out, q)
		}
	}
	return out
}
