// Importer: the ingestion pipeline for raw point data — the preprocessing
// step the paper applies to GeoNames and geo-tweets, where "we move an
// object to its closest road segment if it does not lie on any edge in
// the road network". Raw POIs arrive as free coordinates plus text; the
// pipeline snaps each to its nearest road segment, tokenizes the text
// into the vocabulary, indexes everything, and answers a query.
//
// Run with:
//
//	go run ./examples/importer
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"strings"
	"time"

	"dsks"
	"dsks/snap"
)

// rawPOI is what an external feed would deliver: coordinates + text.
type rawPOI struct {
	Name string
	Loc  dsks.Point
	Text string
}

func main() {
	// A mid-sized generated road network stands in for the city map.
	g, err := dsks.GenerateNetwork(dsks.NetworkConfig{
		Nodes: 900, EdgeFactor: 1.4, Jitter: 0.3, Seed: 3,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("road network: %d intersections, %d segments\n", g.NumNodes(), g.NumEdges())

	// Raw feed: a few named POIs plus a bulk of synthetic ones scattered
	// around the map, none of them on a road segment.
	categories := []string{
		"cafe espresso breakfast",
		"pizza italian delivery",
		"museum art exhibition",
		"hotel rooftop bar",
		"pharmacy open late",
	}
	rng := rand.New(rand.NewSource(7))
	feed := []rawPOI{
		{"Blue Door Cafe", dsks.Point{X: 2310, Y: 4070}, "cafe espresso breakfast pastry"},
		{"Luigi's", dsks.Point{X: 2480, Y: 4140}, "pizza italian delivery"},
		{"City Museum", dsks.Point{X: 7770, Y: 2210}, "museum art exhibition sculpture"},
	}
	for i := 0; i < 3000; i++ {
		feed = append(feed, rawPOI{
			Name: fmt.Sprintf("poi-%04d", i),
			Loc:  dsks.Point{X: rng.Float64() * 10000, Y: rng.Float64() * 10000},
			Text: categories[rng.Intn(len(categories))],
		})
	}

	// Ingestion: snap + tokenize + collect.
	snapper, err := snap.New(g)
	if err != nil {
		log.Fatal(err)
	}
	vocab := dsks.NewVocabulary()
	objects := dsks.NewCollection()
	names := map[dsks.ObjectID]string{}
	var worstSnap float64
	for _, poi := range feed {
		pos, snapDist, err := snapper.Snap(poi.Loc)
		if err != nil {
			log.Fatal(err)
		}
		if snapDist > worstSnap {
			worstSnap = snapDist
		}
		id := objects.Add(pos, vocab.InternAll(strings.Fields(poi.Text)))
		names[id] = poi.Name
	}
	fmt.Printf("ingested %d POIs (worst snap distance %.1f map units), vocabulary %d terms\n",
		objects.Len(), worstSnap, vocab.Size())

	db, err := dsks.Open(g, objects, vocab.Size(), dsks.Options{})
	if err != nil {
		log.Fatal(err)
	}

	// Query: the 5 nearest espresso cafes from Luigi's front door.
	luigi, _, err := snapper.Snap(dsks.Point{X: 2480, Y: 4140})
	if err != nil {
		log.Fatal(err)
	}
	terms, err := vocab.LookupAll([]string{"cafe", "espresso"})
	if err != nil {
		log.Fatal(err)
	}
	// A serving path would bound every lookup; the context-aware variant
	// aborts cleanly if the deadline passes mid-expansion.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	res, err := db.Query(ctx, dsks.KNNQuery{Pos: luigi, Terms: terms, K: 5})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n5 nearest espresso cafes from Luigi's:")
	for i, c := range res.Candidates {
		fmt.Printf("  %d. %-14s %6.0f map units along the roads\n",
			i+1, names[c.Ref.ID], c.Dist)
	}
}
