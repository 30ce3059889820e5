package core

import (
	"cmp"
	"context"
	"math"
	"slices"

	"dsks/internal/ccam"
	"dsks/internal/graph"
)

// DistEngine computes pairwise network distances between positions on the
// road network, on demand. Since no pre-computation (Voronoi diagrams,
// shortcuts) is assumed by the paper, each distance is resolved by a
// bounded run of the traversal kernel over the disk-resident network, on
// one frontier every traversal of the query reuses; per-source distance
// tables are cached for the lifetime of one query, so the n×n pairwise
// matrix of SEQ costs n traversals rather than n².
//
// The bound is sound for diversification: two objects within DeltaMax of
// the query are within 2·DeltaMax of each other (through the query), so a
// search bounded by 2·DeltaMax always finds the exact distance.
//
// When the network carries a landmark oracle (core.WithOracle over an
// internal/alt oracle), three assists kick in, none of which changes the
// diversification results (docs/DISTANCE.md has the soundness argument):
//
//  1. the triangle lower bound maxₗ|d(l,a)−d(l,b)| exceeds the bound →
//     the pair is beyond 2·DeltaMax, where the objective clamps every
//     distance to the same θ, so no traversal runs at all;
//  2. the upper bound minₗ(d(l,a)+d(l,b)) meets the lower bound → the
//     distance is pinched exactly, again with no traversal;
//  3. the remaining traversals become goal-directed A*, using the
//     landmark potential toward the target, which settles a fraction of
//     the nodes the blind bounded Dijkstra would while producing the
//     same distance.
type DistEngine struct {
	f     *frontier // query-scoped, like its context: the engine lives for one query
	bound float64
	cache map[graph.Position][]label
	stats *SearchStats

	oracle   LandmarkOracle
	counters OracleCounters
	posVecs  map[graph.Position][]float64 // per-position landmark vectors
	width    int                          // oracle.NumLandmarks(), the length of every vector
	vecs     []float64                    // per-node landmark vectors in one arena (page reads amortized)
	vecOf    nodeTable                    // node -> where in vecs its vector starts
	target   []float64                    // landmark vector of the running A*'s destination
	pot      func(graph.NodeID) (float64, error)
}

// NewDistEngine creates an engine with the given search bound (use
// 2·DeltaMax for diversified queries). ctx governs every traversal the
// engine runs; stats may be nil. If net was wrapped by WithOracle, the
// engine unwraps it and runs landmark-assisted.
func NewDistEngine(ctx context.Context, net ccam.Network, bound float64, stats *SearchStats) *DistEngine {
	if stats == nil {
		stats = &SearchStats{}
	}
	d := &DistEngine{bound: bound, cache: make(map[graph.Position][]label), stats: stats}
	if an, ok := net.(*assistedNetwork); ok {
		net = an.Network
		d.counters = an.counters
		if an.oracle != nil {
			d.oracle, d.width = an.oracle, an.oracle.NumLandmarks()
			d.posVecs = make(map[graph.Position][]float64)
			d.pot = d.potential // bound once: a method value allocates
		}
	}
	d.f = newFrontier(ctx, net)
	return d
}

// Dist returns the exact network distance between a and b, or +Inf when it
// exceeds the engine's bound.
func (d *DistEngine) Dist(a, b graph.Position) (float64, error) {
	d.stats.PairDistCalcs++
	direct := math.Inf(1)
	if a.Edge == b.Edge {
		info, err := d.f.net.EdgeInfo(a.Edge)
		if err != nil {
			return 0, err
		}
		wa := offsetCost(info.Weight, info.Length, a.Offset)
		wb := offsetCost(info.Weight, info.Length, b.Offset)
		direct = math.Abs(wa - wb)
		if direct == 0 {
			return 0, nil
		}
	}
	// Prefer a cached source: a table lookup costs nothing and is exact.
	if _, ok := d.cache[a]; ok {
		return d.viaTable(a, b, direct)
	}
	if _, ok := d.cache[b]; ok {
		return d.viaTable(b, a, direct)
	}
	if d.oracle != nil {
		return d.assisted(a, b, direct)
	}
	return d.viaTable(a, b, direct)
}

// viaTable resolves the src→dst distance through src's bounded
// node-distance table (computing it if needed), the unassisted path.
func (d *DistEngine) viaTable(src, dst graph.Position, direct float64) (float64, error) {
	dists, err := d.fromSource(src)
	if err != nil {
		return 0, err
	}
	info, err := d.f.net.EdgeInfo(dst.Edge)
	if err != nil {
		return 0, err
	}
	w1 := offsetCost(info.Weight, info.Length, dst.Offset)
	via := math.Inf(1)
	if dn1, ok := lookupNodeDist(dists, info.N1); ok {
		via = dn1 + w1
	}
	if dn2, ok := lookupNodeDist(dists, info.N2); ok {
		via = math.Min(via, dn2+(info.Weight-w1))
	}
	return math.Min(direct, via), nil
}

// assisted resolves a→b with the landmark oracle: lower-bound prune,
// upper-bound pinch, then goal-directed A*. With the upper-bound-seeded
// stop rule an A* run settles only the nodes whose f beats the oracle
// upper bound — typically one or two, a sliver of the 2·DeltaMax ball —
// so per-target searches beat one blind sweep even when a source is
// paired against every other candidate of a large matrix.
func (d *DistEngine) assisted(a, b graph.Position, direct float64) (float64, error) {
	va, err := d.posVec(a)
	if err != nil {
		return 0, err
	}
	vb, err := d.posVec(b)
	if err != nil {
		return 0, err
	}
	lb, ub := oracleBounds(va, vb)
	if lb > d.bound {
		// The true network distance is at least lb > 2·DeltaMax. Beyond
		// the bound the unassisted path reports either +Inf or some
		// finite value > bound, and every consumer clamps both to the
		// same θ (DivParams.Div), so returning the direct distance (≥
		// the true distance ≥ lb here, or +Inf off-edge) is
		// indistinguishable from traversing.
		d.stats.OracleLBPrunes++
		addCounter(d.counters.LBPrunes, 1)
		return direct, nil
	}
	if ub == lb {
		// Pinched: some landmark lies on a shortest a–b path, so the
		// upper bound is the exact distance (and it is ≤ d.bound here,
		// where the engine's contract requires exactness).
		d.stats.OracleUBHits++
		addCounter(d.counters.UBHits, 1)
		return math.Min(direct, ub), nil
	}
	via, err := d.astar(a, vb, b, ub)
	if err != nil {
		return 0, err
	}
	return math.Min(direct, via), nil
}

// nodeVec returns (reading and caching if needed) node n's landmark
// vector. The engine-level cache turns the per-node page read — buffer
// pool latch, possible miss latency — into a one-time cost per query,
// which matters because A* consults the vector of every node it labels.
func (d *DistEngine) nodeVec(n graph.NodeID) ([]float64, error) {
	if at, ok := d.vecOf.get(n); ok {
		return d.vecs[at:][:d.width], nil
	}
	at := len(d.vecs)
	d.vecs = append(d.vecs, make([]float64, d.width)...)
	if err := d.oracle.NodeVec(d.f.ctx, n, d.vecs[at:]); err != nil {
		d.vecs = d.vecs[:at]
		return nil, mapCtxErr(err)
	}
	d.vecOf.put(n, int32(at))
	return d.vecs[at:], nil
}

// posVec returns (computing and caching if needed) position p's landmark
// vector: vp[l] = min over p's end nodes of d(l, node) + offset cost,
// which is the exact landmark distance to the position itself.
func (d *DistEngine) posVec(p graph.Position) ([]float64, error) {
	if v, ok := d.posVecs[p]; ok {
		return v, nil
	}
	info, err := d.f.net.EdgeInfo(p.Edge)
	if err != nil {
		return nil, err
	}
	w1 := offsetCost(info.Weight, info.Length, p.Offset)
	v1, err := d.nodeVec(info.N1)
	if err != nil {
		return nil, err
	}
	v2, err := d.nodeVec(info.N2)
	if err != nil {
		return nil, err
	}
	w2 := info.Weight - w1
	v := make([]float64, len(v1))
	for i := range v {
		v[i] = math.Min(v1[i]+w1, v2[i]+w2)
	}
	d.posVecs[p] = v
	return v, nil
}

// oracleBounds turns two position vectors into triangle-inequality
// bounds: lb = maxₗ|va[l]−vb[l]| ≤ d(a,b) ≤ minₗ(va[l]+vb[l]) = ub.
// A landmark unreachable from both positions bounds nothing (the
// difference would be Inf−Inf) and is skipped; a landmark reachable from
// exactly one side proves the positions are in different components, so
// lb becomes +Inf — which is the exact distance.
func oracleBounds(va, vb []float64) (lb, ub float64) {
	ub = math.Inf(1)
	for i := range va {
		x, y := va[i], vb[i]
		if s := x + y; s < ub {
			ub = s
		}
		if math.IsInf(x, 1) && math.IsInf(y, 1) {
			continue
		}
		if diff := math.Abs(x - y); diff > lb {
			lb = diff
		}
	}
	return lb, ub
}

// triangleLB is oracleBounds' lower bound alone, bit for bit: Inf−Inf is
// NaN, which never compares greater, so a landmark neither side reaches is
// skipped without a test, and a one-sided Inf yields +Inf.
func triangleLB(va, vb []float64) (lb float64) {
	for i, x := range va {
		if diff := math.Abs(x - vb[i]); diff > lb {
			lb = diff
		}
	}
	return lb
}

// potential is the A* landmark potential toward the running search's
// destination: π(n) = maxₗ|vn[l]−target[l]|, a lower bound on the distance
// from n to it, consistent by the triangle inequality.
func (d *DistEngine) potential(n graph.NodeID) (float64, error) {
	vn, err := d.nodeVec(n)
	if err != nil {
		return 0, err
	}
	return triangleLB(vn, d.target), nil
}

// astar runs the goal-directed bounded search from src toward dst: the
// frontier under the landmark potential. Tentative labels are pruned at
// the engine bound exactly like the blind Dijkstra's, a node whose label
// later improves is re-expanded (so the result never depends on
// floating-point slack in the potential), and the search stops once the
// cheapest frontier key cannot beat the best target value — which is why
// it settles only a sliver of the bounded ball.
//
// best is seeded with the oracle upper bound when it lies within the
// engine bound: ub ≥ d(src,dst) always, and if the true distance is
// smaller the optimal path's keys are all ≤ d < ub, so the stop rule
// cannot fire before the exact distance is found; if d == ub the bound
// is already the answer. Beyond the engine bound the seed is skipped so
// the engine still reports +Inf exactly like the blind table.
func (d *DistEngine) astar(src graph.Position, vdst []float64, dst graph.Position, ub float64) (float64, error) {
	d.stats.SourceDijkstra++
	binfo, err := d.f.net.EdgeInfo(dst.Edge)
	if err != nil {
		return 0, err
	}
	w1b := offsetCost(binfo.Weight, binfo.Length, dst.Offset)
	best := math.Inf(1)
	if ub <= d.bound {
		best = ub
	}
	// A label's distance is a lower bound on any src→dst path through its
	// node, so one that cannot beat best (never below the true distance)
	// is dead on arrival: the limit sits just under best.
	limit := func() float64 { return math.Min(d.bound, math.Nextafter(best, math.Inf(-1))) }
	d.target = vdst
	if _, _, err := d.f.start(src, limit(), d.pot); err != nil {
		return 0, err
	}
	for {
		top, ok := d.f.peek()
		if !ok || top.Key >= best {
			break
		}
		if graph.NodeID(top.ID) == binfo.N1 {
			best = math.Min(best, top.Val+w1b)
		}
		if graph.NodeID(top.ID) == binfo.N2 {
			best = math.Min(best, top.Val+(binfo.Weight-w1b))
		}
		d.f.limit = limit()
		if _, _, _, err := d.f.settle(); err != nil {
			return 0, err
		}
	}
	// Every labeled node has a path ≤ bound, so the blind bounded
	// Dijkstra would have settled all of them; the unsettled remainder
	// is work the potential provably saved.
	if saved := int64(len(d.f.labels)) - d.f.settledN; saved > 0 {
		d.stats.OraclePopsSaved += saved
		addCounter(d.counters.PopsSaved, saved)
	}
	d.stats.DistSettled += d.f.settledN
	addCounter(d.counters.Settled, d.f.settledN)
	return best, nil
}

// fromSource returns (computing and caching if needed) the bounded
// node-distance table from position p: the frontier run to exhaustion
// under the engine bound, its labels sorted by node.
func (d *DistEngine) fromSource(p graph.Position) ([]label, error) {
	if cached, ok := d.cache[p]; ok {
		return cached, nil
	}
	d.stats.SourceDijkstra++
	if _, _, err := d.f.start(p, d.bound, nil); err != nil {
		return nil, err
	}
	for _, ok := d.f.peek(); ok; _, ok = d.f.peek() {
		if _, _, _, err := d.f.settle(); err != nil {
			return nil, err
		}
	}
	d.stats.DistSettled += d.f.settledN
	addCounter(d.counters.Settled, d.f.settledN)
	out := slices.Clone(d.f.labels)
	slices.SortFunc(out, func(a, b label) int { return cmp.Compare(a.node, b.node) })
	d.cache[p] = out
	return out, nil
}

func lookupNodeDist(nd []label, n graph.NodeID) (float64, bool) {
	lo, hi := 0, len(nd)
	for lo < hi {
		mid := (lo + hi) / 2
		if nd[mid].node < n {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(nd) && nd[lo].node == n {
		return nd[lo].g, true
	}
	return 0, false
}
