package core

// DivParams captures the bi-criteria max-sum diversification objective of
// Section 2.1. With rel(u) = 1 − δ(q,u)/δmax and div(u,v) = δ(u,v)/(2δmax),
// the set objective
//
//	f(S) = λ·Σ_{u∈S} rel(u) + (1−λ)/(k−1)·Σ_{u≠v∈S} div(u,v)
//
// rewrites as the sum over unordered pairs of the diversification distance
//
//	θ(u,v) = λ/(k−1)·(rel(u)+rel(v)) + 2(1−λ)/(k−1)·div(u,v)
//
// which is the quantity Algorithm 1's greedy, the core pairs of Algorithm 5
// and the pruning bounds of Algorithm 6 operate on.
type DivParams struct {
	K        int
	Lambda   float64
	DeltaMax float64
}

// Rel is the normalized relevance of an object at network distance d from
// the query; 1 at the query, 0 at DeltaMax.
func (p DivParams) Rel(d float64) float64 {
	if p.DeltaMax <= 0 {
		return 0
	}
	r := 1 - d/p.DeltaMax
	if r < 0 {
		return 0
	}
	return r
}

// Div is the normalized spatial diversity of two objects at pairwise
// network distance d; it is at most 1 because two objects within DeltaMax
// of the query are within 2·DeltaMax of each other.
func (p DivParams) Div(d float64) float64 {
	if p.DeltaMax <= 0 {
		return 0
	}
	v := d / (2 * p.DeltaMax)
	if v > 1 {
		return 1
	}
	return v
}

// Theta combines two relevances and a diversity into the pairwise
// diversification distance θ.
func (p DivParams) Theta(relU, relV, div float64) float64 {
	den := float64(p.K - 1)
	if den <= 0 {
		den = 1
	}
	return p.Lambda/den*(relU+relV) + 2*(1-p.Lambda)/den*div
}

// ThetaFromDists is Theta applied to raw network distances.
func (p DivParams) ThetaFromDists(dU, dV, dUV float64) float64 {
	return p.Theta(p.Rel(dU), p.Rel(dV), p.Div(dUV))
}

// PairBound is an upper bound of θ between two arrived objects at
// distances dU and dV from the query that needs no pairwise distance: the
// shortest path through the query bounds δ(u,v) by s = dU + dV, and θ grows
// with the pair's diversity. The 1e-9 relative slack covers rounding, a
// path sum the distance engine computes may exceed the computed s by an
// ulp when the shortest path does run through the query.
func (p DivParams) PairBound(dU, dV float64) float64 {
	return p.ThetaFromDists(dU, dV, (dU+dV)*(1+1e-9))
}

// UnvisitedPairBound is the upper bound of θ between two unvisited objects
// when the expansion frontier is gamma, the bound of Algorithm 6 lines
// 5–7: the largest PairBound over two distances in [gamma, DeltaMax]. The
// paper's bound gives the pair the diversity of two objects 2·DeltaMax
// apart; the path through the query bounds it as it does a visited pair.
// PairBound depends on a pair only through s = dU + dV, and is linear in s
// until its diversity saturates at s·(1+1e-9) = 2·DeltaMax, so the
// largest value is at gamma, at DeltaMax or at that point.
func (p DivParams) UnvisitedPairBound(gamma float64) float64 {
	sat := min(max(p.DeltaMax/(1+1e-9), gamma), p.DeltaMax)
	return max(p.PairBound(gamma, gamma), p.PairBound(p.DeltaMax, p.DeltaMax), p.PairBound(sat, sat))
}

// VisitedUnvisitedBound is the upper bound of θ between a visited object at
// distance dVisited and any unvisited object, with frontier gamma, the
// bound of Algorithm 6 lines 8–14: the largest PairBound(dVisited, dU) over
// dU in [gamma, DeltaMax], found at the same three points as
// UnvisitedPairBound's.
func (p DivParams) VisitedUnvisitedBound(dVisited, gamma float64) float64 {
	sat := min(max(2*p.DeltaMax/(1+1e-9)-dVisited, gamma), p.DeltaMax)
	return max(p.PairBound(dVisited, gamma), p.PairBound(dVisited, p.DeltaMax), p.PairBound(dVisited, sat))
}

// SetObjective evaluates f(S) as the sum of θ over all unordered pairs of
// the candidate set, given the pairwise θ lookup.
func SetObjective(n int, theta func(i, j int) float64) float64 {
	total := 0.0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			total += theta(i, j)
		}
	}
	return total
}
