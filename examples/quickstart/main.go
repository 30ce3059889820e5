// Quickstart: the paper's motivating example (Section 1, Figure 1) — a
// tourist in a city center wants k = 2 restaurants that each serve both
// pancake and lobster, close to her location but spread out, so that the
// post-dinner options around them do not overlap.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"dsks"
)

func main() {
	// A small downtown grid: 3×3 intersections, 200m blocks.
	g := dsks.NewGraph()
	var nodes [3][3]dsks.NodeID
	for r := 0; r < 3; r++ {
		for c := 0; c < 3; c++ {
			nodes[r][c] = g.AddNode(dsks.Point{X: float64(c) * 200, Y: float64(r) * 200})
		}
	}
	var streets []dsks.EdgeID
	addRoad := func(a, b dsks.NodeID) dsks.EdgeID {
		// Cost model: walking distance = geometric street length.
		e, err := g.AddEdge(a, b, g.Node(a).Loc.Dist(g.Node(b).Loc))
		if err != nil {
			log.Fatal(err)
		}
		streets = append(streets, e)
		return e
	}
	for r := 0; r < 3; r++ {
		for c := 0; c < 2; c++ {
			addRoad(nodes[r][c], nodes[r][c+1])
		}
	}
	for r := 0; r < 2; r++ {
		for c := 0; c < 3; c++ {
			addRoad(nodes[r][c], nodes[r+1][c])
		}
	}
	g.Freeze()

	// Restaurants with their service lists, placed along the streets.
	vocab := dsks.NewVocabulary()
	objects := dsks.NewCollection()
	names := map[dsks.ObjectID]string{}
	place := func(name string, street dsks.EdgeID, offset float64, services ...string) {
		id := objects.Add(dsks.Position{Edge: street, Offset: offset}, vocab.InternAll(services))
		names[id] = name
	}
	// Two clusters: p1/p2 close together near the query, p4 across town —
	// the paper's point is that {p1, p4} beats {p1, p2}.
	place("p1 Harbour Grill", streets[0], 50, "pancake", "lobster", "seafood")
	place("p2 Corner Bistro", streets[0], 80, "pancake", "lobster", "wine")
	place("p3 Noodle Bar", streets[1], 100, "noodles", "dumplings")
	place("p4 Garden House", streets[5], 120, "pancake", "lobster", "garden")
	place("p5 Espresso Lane", streets[8], 60, "coffee", "cake")

	db, err := dsks.Open(g, objects, vocab.Size(), dsks.Options{})
	if err != nil {
		log.Fatal(err)
	}

	// The tourist stands at the west end of the first street.
	where := dsks.Position{Edge: streets[0], Offset: 0}
	terms, err := vocab.LookupAll([]string{"pancake", "lobster"})
	if err != nil {
		log.Fatal(err)
	}

	// Open a read view: both queries below run against the same pinned
	// snapshot, so a concurrent insert could never make them disagree.
	ctx := context.Background()
	view, err := db.View(ctx)
	if err != nil {
		log.Fatal(err)
	}
	defer view.Close()

	// Plain boolean search: everything serving both, nearest first.
	res, err := view.Query(ctx, dsks.SKQuery{Pos: where, Terms: terms, DeltaMax: 800})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("All restaurants serving pancake AND lobster within 800m:")
	for _, c := range res.Candidates {
		fmt.Printf("  %-18s %4.0fm away\n", names[c.Ref.ID], c.Dist)
	}

	// Diversified search: k = 2, λ = 0.4 — weight spread over closeness.
	// p1 and p2 are only 30m apart, so even though p2 is the second
	// closest match, the diversified result swaps it for the far cluster's
	// p4 (the paper's S2 = {p1, p4} over S1 = {p1, p2}).
	div, err := view.Query(ctx, dsks.DivQuery{
		SKQuery: dsks.SKQuery{Pos: where, Terms: terms, DeltaMax: 800},
		K:       2,
		Lambda:  0.4,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nDiversified pick (k=2, λ=0.4), objective f = %.3f:\n", div.F)
	for _, c := range div.Candidates {
		fmt.Printf("  %-18s %4.0fm away\n", names[c.Ref.ID], c.Dist)
	}
	pairDist, err := view.NetworkDistance(ctx, div.Candidates[0].Ref.Pos(), div.Candidates[1].Ref.Pos())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  the two picks are %.0fm apart on the road network\n", pairDist)

	// Where did the time go? Every result carries a stage-timing trace.
	fmt.Printf("\nQuery time breakdown: expansion %v, posting reads %v, diversification %v (total %v)\n",
		div.Trace.Expansion.Round(time.Microsecond),
		div.Trace.PostingReads.Round(time.Microsecond),
		div.Trace.Diversify.Round(time.Microsecond),
		div.Trace.Total.Round(time.Microsecond))
}
