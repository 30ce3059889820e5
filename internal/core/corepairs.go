package core

import (
	"sort"

	"dsks/internal/obj"
)

// CorePair is one of the ⌈k/2⌉ object pairs the greedy diversification
// would select over the objects seen so far (Section 4.2).
type CorePair = corePair[obj.ID]

type corePair[T coreKey] struct {
	A, B  T
	Theta float64
}

// coreKey names the objects of a core-pair set: object IDs in
// CorePairSet, arrival slots (positions in the arrival sequence) inside
// Algorithm 6, which keeps its per-object state in slices indexed by slot.
type coreKey interface{ ~int | ~int32 }

// CorePairSet incrementally maintains the core pairs — and hence the
// diversification distance threshold θ_T — against the arrival of new
// objects, per Algorithm 5. θ_T grows monotonically (Theorem 1), which is
// what the diversity pruning of Algorithm 6 relies on. Its membership
// table is indexed by object ID, so it suits small IDs; Algorithm 6 runs
// the same set over arrival slots.
type CorePairSet = corePairs[obj.ID]

type corePairs[T coreKey] struct {
	maxPairs int
	pairs    []corePair[T] // sorted by Theta, descending
	member   []int         // key -> 1 + index of its pair; 0 for a non-core key
	id       func(T) obj.ID
}

// NewCorePairSet creates an empty set maintaining at most maxPairs pairs
// (⌈k/2⌉ for a diversified query of size k).
func NewCorePairSet(maxPairs int) *CorePairSet {
	cp := newCorePairs(maxPairs, func(id obj.ID) obj.ID { return id })
	return &cp
}

// newCorePairs is NewCorePairSet over any key; id names the object behind
// a key, and Update breaks exact θ ties toward the lower object ID.
func newCorePairs[T coreKey](maxPairs int, id func(T) obj.ID) corePairs[T] {
	return corePairs[T]{maxPairs: maxPairs, id: id}
}

// InitGreedy seeds the set by running Algorithm 1's greedy over the first
// objects: keys are the arrived objects, theta the symmetric pairwise
// diversification distance.
func (cp *corePairs[T]) InitGreedy(keys []T, theta func(a, b T) float64) {
	cp.pairs = cp.pairs[:0]
	clear(cp.member)
	chosen := GreedyDiversify(len(keys), 2*cp.maxPairs, func(i, j int) float64 {
		return theta(keys[i], keys[j])
	})
	for i := 0; i+1 < len(chosen); i += 2 {
		a, b := keys[chosen[i]], keys[chosen[i+1]]
		cp.pairs = append(cp.pairs, corePair[T]{A: a, B: b, Theta: theta(a, b)})
	}
	cp.sortPairs()
}

func (cp *corePairs[T]) sortPairs() {
	sort.SliceStable(cp.pairs, func(i, j int) bool { return cp.pairs[i].Theta > cp.pairs[j].Theta })
	for i, p := range cp.pairs {
		cp.setMember(p.A, i+1)
		cp.setMember(p.B, i+1)
	}
}

// setMember records key's membership (1 + pair index, or 0 for none).
func (cp *corePairs[T]) setMember(key T, m int) {
	if int(key) >= len(cp.member) {
		if m == 0 {
			return
		}
		cp.member = append(cp.member, make([]int, int(key)+1-len(cp.member))...)
	}
	cp.member[key] = m
}

// ThetaT returns the current pruning threshold: the smallest core-pair θ
// once the set is full, else 0 (no pruning power yet).
func (cp *corePairs[T]) ThetaT() float64 {
	if len(cp.pairs) < cp.maxPairs || cp.maxPairs == 0 {
		return 0
	}
	return cp.pairs[len(cp.pairs)-1].Theta
}

// IsCore reports whether key is currently a core object.
func (cp *corePairs[T]) IsCore(key T) bool {
	return int(key) < len(cp.member) && cp.member[key] != 0
}

// Pairs returns a copy of the current core pairs, best first.
func (cp *corePairs[T]) Pairs() []corePair[T] {
	return append([]corePair[T](nil), cp.pairs...)
}

// CoreObjects returns the core objects in pair order.
func (cp *corePairs[T]) CoreObjects() []T {
	out := make([]T, 0, 2*len(cp.pairs))
	for _, p := range cp.pairs {
		out = append(out, p.A, p.B)
	}
	return out
}

// partnerTheta returns the θ of the pair that core object x belongs to and
// that pair's index.
func (cp *corePairs[T]) partnerTheta(x T) (float64, int, bool) {
	if !cp.IsCore(x) {
		return 0, 0, false
	}
	i := cp.member[x] - 1
	return cp.pairs[i].Theta, i, true
}

// Update processes the arrival of object o (Algorithm 5): alive lists all
// arrived, unpruned objects — o itself may be included; it is skipped when
// it is the object currently being placed but participates in cascaded
// re-insertions — and theta is the symmetric pairwise diversification
// distance. theta need not be exact for a pair whose θ is at most the
// current θ_T: any value at most θ_T is discarded before it is compared
// with anything. It returns the number of while-loop iterations performed
// (at most ⌈k/2⌉ per the paper's analysis), which tests use to verify the
// bound.
func (cp *corePairs[T]) Update(o T, alive []T, theta func(a, b T) float64) int {
	if cp.maxPairs == 0 {
		return 0
	}
	iterations := 0
	cur := o
	for {
		iterations++
		thetaT := cp.ThetaT()
		// φ(cur): alive objects with θ(cur, x) > θ_T that do not dominate
		// cur; pick the farthest (Lines 2–3).
		bestX, found := T(0), false
		bestTheta := 0.0
		for _, x := range alive {
			if x == cur {
				continue
			}
			t := theta(cur, x)
			if t <= thetaT {
				continue
			}
			// x dominates cur (Lemma 1): skip this pair. The paper assumes
			// distinct diversification distances; exact θ ties do occur in
			// practice, and treating a tie as dominance keeps every case-iii
			// replacement a strict improvement — which is what guarantees
			// the cascade terminates (Σ pair θ strictly increases over a
			// finite value set).
			if pt, _, isCore := cp.partnerTheta(x); isCore && t <= pt {
				continue
			}
			if !found || t > bestTheta || (t == bestTheta && cp.id(x) < cp.id(bestX)) {
				bestX, bestTheta, found = x, t, true
			}
		}
		if !found {
			return iterations // case i: cur contributes nothing
		}
		if _, idx, isCore := cp.partnerTheta(bestX); !isCore {
			// Case ii: evict the ⌈k/2⌉-th pair, adopt (cur, bestX).
			last := cp.pairs[len(cp.pairs)-1]
			cp.setMember(last.A, 0)
			cp.setMember(last.B, 0)
			cp.pairs[len(cp.pairs)-1] = corePair[T]{A: cur, B: bestX, Theta: bestTheta}
			cp.sortPairs()
			return iterations
		} else {
			// Case iii: (bestX, y) is a core pair; replace it with
			// (cur, bestX) and re-process y as a fresh arrival.
			old := cp.pairs[idx]
			y := old.A
			if y == bestX {
				y = old.B
			}
			cp.setMember(old.A, 0)
			cp.setMember(old.B, 0)
			cp.pairs[idx] = corePair[T]{A: cur, B: bestX, Theta: bestTheta}
			cp.sortPairs()
			cur = y
		}
	}
}
