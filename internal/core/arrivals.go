package core

import "dsks/internal/index"

// ArrivalSource is where every query family's objects come from: the
// qualifying objects of one query, each exactly once, in non-decreasing
// network distance from the query position. A boolean source yields the
// objects containing every query term, an OR source those containing at
// least one, with Terms reporting which. A single node's source is its own
// *SKSearch; the shard router's is the merge of its legs' streams. Nothing
// in a family depends on which.
type ArrivalSource interface {
	// Next returns the next arrival; false once the source is exhausted.
	Next() (Candidate, bool, error)
	// Terms is the set of query terms the arrival Next returned last
	// contains, as positions in the query's sorted terms (OR sources).
	Terms() index.TermSet
	// Limit lowers the source's radius to d: no arrival farther than d
	// follows, and the expansions behind it end once they pass d.
	Limit(d float64)
	// Stop abandons the source.
	Stop()
}

// answerCap bounds the capacity an answer of k objects starts with: k is
// the client's and may exceed the database by any factor, so the answer
// grows by what arrives.
const answerCap = 16

// takeArrivals returns src's first k arrivals, or all of them when k is 0:
// the boolean query drains its source, and because arrivals come in
// non-decreasing distance, kNN's first k are exactly the k nearest. src is
// left to the caller to stop.
func takeArrivals(src ArrivalSource, k int) ([]Candidate, error) {
	var out []Candidate
	if k > 0 {
		out = make([]Candidate, 0, min(k, answerCap))
	}
	for k == 0 || len(out) < k {
		c, ok, err := src.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		out = append(out, c)
	}
	return out, nil
}
