package sig

import (
	"slices"
	"sort"
)

// TermSignature is the signature of one keyword: conceptually a bitmap with
// one bit per slot (edge or virtual edge), I(e, t) = 1 iff some object with
// keyword t lies on e. It is stored as the sorted positions of the set bits
// and sized, for space accounting, as the KD-compacted tree of the paper:
// a balanced binary tree over the slot range where any subtree whose leaves
// share the same value collapses to a single 2-bit node.
type TermSignature struct {
	n   int32   // number of slots
	set []int32 // sorted slot positions with bit = 1
}

// NewTermSignature builds a signature over n slots from the set-bit
// positions, which may repeat and come in any order; positions already in
// order (BuildSIF collects them so) are not sorted again.
func NewTermSignature(n int32, positions []int32) *TermSignature {
	set := slices.Clone(positions)
	if !slices.IsSorted(set) {
		slices.Sort(set)
	}
	return &TermSignature{n: n, set: slices.Compact(set)}
}

// Set turns on the bit at position pos (no-op when already set); used by
// dynamic inserts after the initial build.
func (s *TermSignature) Set(pos int32) {
	i := sort.Search(len(s.set), func(i int) bool { return s.set[i] >= pos })
	if i < len(s.set) && s.set[i] == pos {
		return
	}
	s.set = append(s.set, 0)
	copy(s.set[i+1:], s.set[i:])
	s.set[i] = pos
}

// WithBit returns a signature with the bit at pos set, never mutating the
// receiver: when the bit is already on, the receiver itself is returned;
// otherwise a new signature with a fresh position slice is built. This is
// the copy-on-write counterpart of Set, used by the MVCC insert path so
// that published signatures stay immutable under concurrent readers.
func (s *TermSignature) WithBit(pos int32) *TermSignature {
	i := sort.Search(len(s.set), func(i int) bool { return s.set[i] >= pos })
	if i < len(s.set) && s.set[i] == pos {
		return s
	}
	set := make([]int32, 0, len(s.set)+1)
	set = append(set, s.set[:i]...)
	set = append(set, pos)
	set = append(set, s.set[i:]...)
	return &TermSignature{n: s.n, set: set}
}

// Test reports the bit at position pos.
func (s *TermSignature) Test(pos int32) bool {
	i := sort.Search(len(s.set), func(i int) bool { return s.set[i] >= pos })
	return i < len(s.set) && s.set[i] == pos
}

// TestRange reports whether any bit in [lo, lo+count) is set. For a
// partitioned edge this answers "does any virtual edge of e contain t".
func (s *TermSignature) TestRange(lo, count int32) bool {
	i := sort.Search(len(s.set), func(i int) bool { return s.set[i] >= lo })
	return i < len(s.set) && s.set[i] < lo+count
}

// Ones returns the number of set bits.
func (s *TermSignature) Ones() int { return len(s.set) }

// CompactedBits returns the size in bits of the KD-compacted signature
// tree: a node is encoded in 2 bits (all-zero / all-one / mixed); the
// subtrees of uniform nodes are elided. A flat bitmap would cost n bits;
// sparse or clustered signatures compact far below that.
func (s *TermSignature) CompactedBits() int64 {
	if s.n == 0 {
		return 0
	}
	end, _ := slices.BinarySearch(s.set, s.n) // a position past the last slot is no bit of the tree
	return compactedBits(s.set[:end], 0, s.n)
}

// compactedBits sizes the subtree over the slots [lo, hi), of which ones
// holds the set ones in order. A node splits its ones between its children
// with one search inside its own range.
func compactedBits(ones []int32, lo, hi int32) int64 {
	if len(ones) == 0 || int32(len(ones)) == hi-lo {
		return 2 // uniform subtree collapses to one node
	}
	mid := (lo + hi) / 2
	i, _ := slices.BinarySearch(ones, mid)
	return 2 + compactedBits(ones[:i], lo, mid) + compactedBits(ones[i:], mid, hi)
}

// SizeBytes returns the signature's storage cost in bytes: each term is
// stored in whichever encoding is smaller — the flat bitmap (one bit per
// slot) or the KD-compacted tree. Compaction wins when set bits are sparse
// or spatially clustered (the common case at road-network scale); dense
// signatures of very frequent terms fall back to the bitmap.
func (s *TermSignature) SizeBytes() int64 {
	bits := s.CompactedBits()
	if flat := int64(s.n); flat < bits {
		bits = flat
	}
	return (bits + 7) / 8
}
