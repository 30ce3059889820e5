// Tourplanner: diversified search for trip planning — pick k hotels that
// all offer the wanted amenities, close to the conference venue but spread
// across town so day trips from them cover different neighbourhoods. The
// example shows how the relevance/diversity knob λ changes the picks,
// mirroring Figures 14 and 15 of the paper, and what the incremental COM
// algorithm's pruning saves over a workload.
//
// Run with:
//
//	go run ./examples/tourplanner
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"time"

	"dsks"
)

func main() {
	fmt.Println("generating a metropolitan area (1/300 of the paper's NA scale)...")
	ds, err := dsks.GeneratePreset(dsks.PresetNA, 300, 23)
	if err != nil {
		log.Fatal(err)
	}
	db, err := dsks.OpenDataset(ds, dsks.Options{Index: dsks.IndexSIF})
	if err != nil {
		log.Fatal(err)
	}
	queries, err := dsks.GenerateWorkload(ds.Objects, ds.VocabSize, dsks.WorkloadConfig{
		NumQueries: 30, Keywords: 2, Seed: 5,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Find a workload query with a healthy number of matches to narrate.
	var venue dsks.WorkloadQuery
	best := 0
	for _, q := range queries {
		res, err := db.Query(context.Background(), dsks.SKQuery{Pos: q.Pos, Terms: q.Terms, DeltaMax: q.DeltaMax})
		if err != nil {
			log.Fatal(err)
		}
		if len(res.Candidates) > best {
			best = len(res.Candidates)
			venue = q
		}
	}
	if best < 4 {
		log.Fatalf("dataset too sparse for the demo (best query matched %d)", best)
	}
	fmt.Printf("venue on street %d; %d hotels offer amenities %v within %.0fm\n\n",
		venue.Pos.Edge, best, venue.Terms, venue.DeltaMax)

	// λ sweep: higher λ favours closeness, lower λ favours spread. The
	// whole sweep runs inside one read view, so every λ is scored against
	// the same pinned snapshot even if hotels were being inserted
	// concurrently — comparing picks across λ only makes sense when all
	// three queries saw identical data.
	ctx := context.Background()
	view, err := db.View(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("effect of the relevance/diversity trade-off (k = 4, snapshot LSN %d):\n", view.LSN())
	for _, lambda := range []float64{0.9, 0.7, 0.5} {
		res, err := view.Query(ctx, dsks.DivQuery{
			SKQuery: dsks.SKQuery{Pos: venue.Pos, Terms: venue.Terms, DeltaMax: venue.DeltaMax},
			K:       4,
			Lambda:  lambda,
		})
		if err != nil {
			log.Fatal(err)
		}
		var avgDist, minPair float64
		minPair = -1
		for i, c := range res.Candidates {
			avgDist += c.Dist
			for _, d := range res.Candidates[i+1:] {
				pd, err := view.NetworkDistance(ctx, c.Ref.Pos(), d.Ref.Pos())
				if err != nil {
					log.Fatal(err)
				}
				if minPair < 0 || pd < minPair {
					minPair = pd
				}
			}
		}
		if n := float64(len(res.Candidates)); n > 0 {
			avgDist /= n
		}
		fmt.Printf("  λ = %.1f: f = %.3f, avg hotel distance %5.0fm, closest pair %5.0fm apart\n",
			lambda, res.F, avgDist, minPair)
	}

	// The whole workload (k = 10, λ = 0.8 — the paper's defaults): COM
	// drops objects that can never enter a core pair and stops the network
	// expansion as soon as no unvisited object could.
	fmt.Println("\nincremental COM over 30 queries (k = 10, λ = 0.8):")
	if err := db.ResetIO(); err != nil {
		log.Fatal(err)
	}
	var elapsed time.Duration
	var reads, pruned int64
	var early int
	for _, q := range queries {
		res, err := view.Query(ctx, dsks.DivQuery{
			SKQuery: dsks.SKQuery{Pos: q.Pos, Terms: q.Terms, DeltaMax: q.DeltaMax},
			K:       10,
			Lambda:  0.8,
		})
		if err != nil {
			log.Fatal(err)
		}
		elapsed += res.Elapsed
		reads += res.DiskReads
		pruned += res.Stats.Pruned
		if res.Stats.EarlyTerminate {
			early++
		}
	}
	n := int64(len(queries))
	fmt.Printf("  avg %-10v avg disk reads %6.1f  pruned %3d objects, early-stopped %d/%d queries\n",
		(elapsed / time.Duration(n)).Round(time.Microsecond),
		float64(reads)/float64(n), pruned, early, len(queries))

	view.Close() // release the pin so storage can reclaim old versions

	// An interactive planner wants to abandon a query the moment the user
	// navigates away: every search honors its context.
	ctx, cancel := context.WithCancel(ctx)
	cancel() // the user already left
	_, err = db.Query(ctx, dsks.DivQuery{
		SKQuery: dsks.SKQuery{Pos: venue.Pos, Terms: venue.Terms, DeltaMax: venue.DeltaMax},
		K:       4,
		Lambda:  0.8,
	})
	fmt.Printf("\ncanceled mid-flight: errors.Is(err, dsks.ErrCanceled) = %v\n",
		errors.Is(err, dsks.ErrCanceled))
}
