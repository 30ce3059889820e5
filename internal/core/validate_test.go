package core_test

import (
	"math"
	"testing"

	"dsks/internal/core"
	"dsks/internal/graph"
	"dsks/internal/obj"
)

// nonFinite are the float values every query parameter must refuse.
var nonFinite = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}

// checkNonFinite asserts that base validates and that setting each named
// float parameter to NaN or ±Inf makes it fail.
func checkNonFinite[Q interface{ Validate() error }](t *testing.T, base Q, params map[string]func(*Q, float64)) {
	t.Helper()
	if err := base.Validate(); err != nil {
		t.Fatalf("base query rejected: %v", err)
	}
	for name, set := range params {
		for _, v := range nonFinite {
			q := base
			set(&q, v)
			if err := q.Validate(); err == nil {
				t.Errorf("%s=%v accepted", name, v)
			}
		}
	}
}

var validPos = graph.Position{Edge: 3, Offset: 1.5}

func TestSKQueryRejectsNonFinite(t *testing.T) {
	checkNonFinite(t, core.SKQuery{Pos: validPos, Terms: []obj.TermID{1, 2}, DeltaMax: 100},
		map[string]func(*core.SKQuery, float64){
			"offset":   func(q *core.SKQuery, v float64) { q.Pos.Offset = v },
			"deltaMax": func(q *core.SKQuery, v float64) { q.DeltaMax = v },
		})
}

func TestDivQueryRejectsNonFinite(t *testing.T) {
	base := core.DivQuery{
		SKQuery: core.SKQuery{Pos: validPos, Terms: []obj.TermID{1}, DeltaMax: 100},
		K:       3, Lambda: 0.8,
	}
	checkNonFinite(t, base, map[string]func(*core.DivQuery, float64){
		"offset":   func(q *core.DivQuery, v float64) { q.Pos.Offset = v },
		"deltaMax": func(q *core.DivQuery, v float64) { q.DeltaMax = v },
		"lambda":   func(q *core.DivQuery, v float64) { q.Lambda = v },
	})
}

func TestKNNQueryRejectsNonFinite(t *testing.T) {
	checkNonFinite(t, core.KNNQuery{Pos: validPos, Terms: []obj.TermID{1}, K: 3, MaxDist: 50},
		map[string]func(*core.KNNQuery, float64){
			"offset":  func(q *core.KNNQuery, v float64) { q.Pos.Offset = v },
			"maxDist": func(q *core.KNNQuery, v float64) { q.MaxDist = v },
		})
	// 0 is the unbounded kNN, not a non-finite one.
	if err := (core.KNNQuery{Pos: validPos, Terms: []obj.TermID{1}, K: 3}).Validate(); err != nil {
		t.Errorf("unbounded kNN rejected: %v", err)
	}
}

func TestRankedQueryRejectsNonFinite(t *testing.T) {
	checkNonFinite(t, core.RankedQuery{Pos: validPos, Terms: []obj.TermID{1}, K: 3, Alpha: 0.5, DeltaMax: 100},
		map[string]func(*core.RankedQuery, float64){
			"offset":   func(q *core.RankedQuery, v float64) { q.Pos.Offset = v },
			"alpha":    func(q *core.RankedQuery, v float64) { q.Alpha = v },
			"deltaMax": func(q *core.RankedQuery, v float64) { q.DeltaMax = v },
		})
}

func TestCollectiveQueryRejectsNonFinite(t *testing.T) {
	checkNonFinite(t, core.CollectiveQuery{Pos: validPos, Terms: []obj.TermID{1}, DeltaMax: 100},
		map[string]func(*core.CollectiveQuery, float64){
			"offset":   func(q *core.CollectiveQuery, v float64) { q.Pos.Offset = v },
			"deltaMax": func(q *core.CollectiveQuery, v float64) { q.DeltaMax = v },
		})
}
