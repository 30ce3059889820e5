// Package core implements the paper's query processing algorithms: the
// incremental spatial keyword search on road networks (Algorithm 3 — INE
// with accumulated Dijkstra distances plus signature-based object
// loading), the greedy max-sum diversification (Algorithm 1), the
// incremental core-pair maintenance (Algorithm 5), and the incremental
// diversified SK search with diversity-based pruning (Algorithm 6, COM).
// Its straw-man SEQ is the experiments' (internal/experiments/baselines).
package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"dsks/internal/ccam"
	"dsks/internal/graph"
	"dsks/internal/index"
	"dsks/internal/metrics"
	"dsks/internal/obj"
)

// SKQuery is a boolean spatial keyword query on a road network: find the
// objects within network distance DeltaMax of Pos that contain every
// keyword in Terms.
type SKQuery struct {
	Pos      graph.Position
	Terms    []obj.TermID // sorted, duplicate-free (obj.NormalizeTerms)
	DeltaMax float64
}

// Validate checks the query's well-formedness.
func (q SKQuery) Validate() error {
	if len(q.Terms) == 0 {
		return errors.New("core: query needs at least one keyword")
	}
	for i := 1; i < len(q.Terms); i++ {
		if q.Terms[i] <= q.Terms[i-1] {
			return errors.New("core: query terms must be sorted and unique")
		}
	}
	if err := CheckOffset(q.Pos); err != nil {
		return err
	}
	if err := finite("DeltaMax", q.DeltaMax); err != nil {
		return err
	}
	if q.DeltaMax <= 0 {
		return fmt.Errorf("core: DeltaMax must be positive, got %v", q.DeltaMax)
	}
	return nil
}

// Expansion is the boolean query itself.
func (q SKQuery) Expansion() (SKQuery, bool) { return q, false }

// Kind is metrics.KindSearch.
func (SKQuery) Kind() metrics.QueryKind { return metrics.KindSearch }

// Answer drains src: every qualifying object, in non-decreasing distance.
func (SKQuery) Answer(_ context.Context, src ArrivalSource, _ ccam.Network, res *Result) (err error) {
	res.Candidates, err = takeArrivals(src, 0)
	return err
}

// expansionQuery is the search a query family runs: a normalized copy of
// its terms, within radius.
func expansionQuery(pos graph.Position, terms []obj.TermID, radius float64) SKQuery {
	return SKQuery{Pos: pos, Terms: obj.NormalizeTerms(append([]obj.TermID(nil), terms...)), DeltaMax: radius}
}

// CheckOffset applies finite to a position's offset: the one rule every
// query, mutation and distance request applies to the positions it is
// given.
func CheckOffset(pos graph.Position) error { return finite("position offset", pos.Offset) }

// finite rejects a NaN or infinite query parameter. NaN fails every
// ordered comparison, so it slips past the range checks: a NaN radius
// would expand the whole network and a NaN offset would match nothing.
func finite(name string, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("core: %s must be finite, got %v", name, v)
	}
	return nil
}

// Candidate is an object satisfying the spatial keyword constraint, with
// its exact network distance from the query.
type Candidate struct {
	Ref  index.ObjectRef
	Dist float64
}

// DivQuery extends SKQuery with the diversification parameters: the result
// size k and the relevance/diversity trade-off λ of the paper's bi-criteria
// objective. It reads the expansion of its SKQuery (the promoted
// Expansion).
type DivQuery struct {
	SKQuery
	K      int
	Lambda float64
}

// Validate checks the query's well-formedness.
func (q DivQuery) Validate() error {
	if err := q.SKQuery.Validate(); err != nil {
		return err
	}
	if q.K < 1 {
		return fmt.Errorf("core: k must be >= 1, got %d", q.K)
	}
	if err := finite("lambda", q.Lambda); err != nil {
		return err
	}
	if q.Lambda < 0 || q.Lambda > 1 {
		return fmt.Errorf("core: lambda must be in [0,1], got %v", q.Lambda)
	}
	return nil
}

// Kind is metrics.KindDiversified.
func (DivQuery) Kind() metrics.QueryKind { return metrics.KindDiversified }

// Answer is COM, Algorithm 6 with both pruning rules (DiversifyArrivals).
func (q DivQuery) Answer(ctx context.Context, src ArrivalSource, net ccam.Network, res *Result) (err error) {
	*res, err = DiversifyArrivals(ctx, src, net, q, PruneOptions{})
	return err
}

// SearchStats aggregates the per-query cost counters the experiments
// report.
type SearchStats struct {
	NodesPopped    int64 // l_n: nodes settled by the network expansion
	EdgesVisited   int64 // l_e: edges whose objects were (potentially) loaded
	Candidates     int64 // objects satisfying the spatial keyword constraint
	PairDistCalcs  int64 // pairwise network distance evaluations
	SourceDijkstra int64 // bounded Dijkstra runs of the distance engine
	DistSettled    int64 // nodes settled by the distance engine's traversals
	Pruned         int64 // objects eliminated by the diversity pruning
	EarlyTerminate bool  // whether COM cut the expansion short

	// Landmark-oracle effectiveness (docs/DISTANCE.md); all zero when
	// the engine runs unassisted.
	OracleLBPrunes  int64 // pairs short-circuited by the triangle lower bound
	OracleUBHits    int64 // pairs resolved by upper bound == lower bound
	OraclePopsSaved int64 // in-bound nodes A* provably left unsettled
}

// Add accumulates other into s.
func (s *SearchStats) Add(other SearchStats) {
	s.NodesPopped += other.NodesPopped
	s.EdgesVisited += other.EdgesVisited
	s.Candidates += other.Candidates
	s.PairDistCalcs += other.PairDistCalcs
	s.SourceDijkstra += other.SourceDijkstra
	s.DistSettled += other.DistSettled
	s.Pruned += other.Pruned
	s.EarlyTerminate = s.EarlyTerminate || other.EarlyTerminate
	s.OracleLBPrunes += other.OracleLBPrunes
	s.OracleUBHits += other.OracleUBHits
	s.OraclePopsSaved += other.OraclePopsSaved
}
