package core

import (
	"context"
	"sync/atomic"

	"dsks/internal/ccam"
	"dsks/internal/graph"
)

// LandmarkOracle is the read interface of the ALT distance oracle
// (internal/alt). NodeVec fills dst (length NumLandmarks) with node n's
// exact network distances to every landmark; the engine turns those
// vectors into triangle-inequality distance bounds and A* potentials.
// The contract that keeps the bounds sound: the vectors hold exact
// distances over the same network the engine traverses (+Inf across
// components), and they depend only on the network topology — never on
// the object set.
type LandmarkOracle interface {
	NumLandmarks() int
	NodeVec(ctx context.Context, n graph.NodeID, dst []float64) error
}

// OracleCounters are the process-wide oracle effectiveness counters,
// named oracle_*_total / dist_settled_total on /varz and /metricsz. Any
// field may be nil; the engine skips nil counters, so a zero value is a
// valid "don't count" configuration.
type OracleCounters struct {
	LBPrunes  *atomic.Int64 // oracle_lb_prunes_total
	UBHits    *atomic.Int64 // oracle_ub_hits_total
	PopsSaved *atomic.Int64 // oracle_astar_pops_saved_total
	Settled   *atomic.Int64 // dist_settled_total (counted with or without an oracle)
}

func addCounter(c *atomic.Int64, n int64) {
	if c != nil && n != 0 {
		c.Add(n)
	}
}

// assistedNetwork carries a landmark oracle alongside a network so the
// pair travels together through Run and every Answer; NewDistEngine
// unwraps it. The embedded Network keeps every traversal call working
// unchanged on the wrapper itself.
type assistedNetwork struct {
	ccam.Network
	oracle   LandmarkOracle
	counters OracleCounters
}

// WithOracle attaches oracle and counters to net. A nil or empty oracle
// attaches counters alone — useful so dist_settled_total counts the
// unassisted baseline too. The wrapper changes nothing about traversal;
// only DistEngine looks inside.
func WithOracle(net ccam.Network, oracle LandmarkOracle, counters OracleCounters) ccam.Network {
	if oracle != nil && oracle.NumLandmarks() == 0 {
		oracle = nil
	}
	return &assistedNetwork{Network: net, oracle: oracle, counters: counters}
}
