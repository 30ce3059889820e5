// Citysearch: local-search over a city-scale dataset — the yellow-pages
// scenario the paper's introduction motivates. A San-Francisco-like
// network is generated, businesses with Zipf-distributed service keywords
// are placed on its streets, and the same boolean query workload is run
// against the three index structures the database serves to show why the
// signature-based inverted file (SIF/SIF-P) is the one you want.
//
// Run with:
//
//	go run ./examples/citysearch
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"dsks"
)

func main() {
	fmt.Println("generating a San-Francisco-like city (1/400 of paper scale)...")
	ds, err := dsks.GeneratePreset(dsks.PresetSF, 400, 7)
	if err != nil {
		log.Fatal(err)
	}
	st := ds.Stats()
	fmt.Printf("  %d intersections, %d streets, %d businesses, %d distinct keywords\n\n",
		st.Nodes, st.Edges, st.Objects, st.VocabSize)

	queries, err := dsks.GenerateWorkload(ds.Objects, ds.VocabSize, dsks.WorkloadConfig{
		NumQueries: 50,
		Keywords:   3, // e.g. "pizza delivery vegan"
		Seed:       11,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("index structure comparison over the same 50-query workload:")
	fmt.Printf("  %-6s  %-10s  %-10s  %-12s  %s\n",
		"index", "build", "size", "avg query", "avg disk reads")
	for _, kind := range []dsks.IndexKind{dsks.IndexIF, dsks.IndexSIF, dsks.IndexSIFP} {
		db, err := dsks.OpenDataset(ds, dsks.Options{Index: kind})
		if err != nil {
			log.Fatal(err)
		}
		if err := db.ResetIO(); err != nil {
			log.Fatal(err)
		}
		for _, q := range queries {
			if _, err := db.Query(context.Background(), dsks.SKQuery{Pos: q.Pos, Terms: q.Terms, DeltaMax: q.DeltaMax}); err != nil {
				log.Fatal(err)
			}
		}
		// The per-query accounting lives in the metrics registry: latency
		// quantiles and cost counters per query kind, hit rates per pool.
		snap := db.Snapshot()
		qs := snap.Queries[dsks.KindSearch]
		fmt.Printf("  %-6s  %-10v  %6.2f MB  %12v  %8.1f\n",
			kind, db.BuildTime().Round(time.Millisecond),
			float64(db.IndexSizeBytes())/(1<<20),
			qs.Mean.Round(time.Microsecond),
			float64(qs.DiskReads)/float64(qs.Count))
	}

	// One concrete search, spelled out.
	db, err := dsks.OpenDataset(ds, dsks.Options{Index: dsks.IndexSIFP})
	if err != nil {
		log.Fatal(err)
	}
	q := queries[0]
	res, err := db.Query(context.Background(), dsks.SKQuery{Pos: q.Pos, Terms: q.Terms, DeltaMax: q.DeltaMax})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsample query: keywords %v within %.0fm of street %d\n",
		q.Terms, q.DeltaMax, q.Pos.Edge)
	fmt.Printf("  %d matching businesses; nearest three:\n", len(res.Candidates))
	for i, c := range res.Candidates {
		if i == 3 {
			break
		}
		fmt.Printf("  business %d on street %d, %.0fm down the road network\n",
			c.Ref.ID, c.Ref.Edge, c.Dist)
	}

	snap := db.Snapshot()
	qs := snap.Queries[dsks.KindSearch]
	fmt.Printf("\nobservability: %d search queries, p50 %v, p95 %v\n",
		qs.Count, qs.P50.Round(time.Microsecond), qs.P95.Round(time.Microsecond))
	for _, name := range snap.PoolNames() {
		p := snap.Pools[name]
		fmt.Printf("  pool %-10s %6d reads, %5.1f%% served from buffer\n",
			name, p.LogicalReads, 100*p.HitRate)
	}
}
