// Command dsks runs spatial keyword and diversified spatial keyword
// queries against a dataset — either a preset analogue generated on the
// fly or a dataset frozen to disk by command datagen.
//
// Usage:
//
//	dsks -preset SYN -scale 200 -terms 3,7 -deltamax 1500           # boolean SK query
//	dsks -preset NA -terms 1,2,5 -k 10 -lambda 0.8                  # diversified
//	dsks -load ./data/na -terms 4 -index SIF-P -queries 5
//	dsks -preset SYN -queries 20 -stats                             # metrics report
//	dsks -preset NA -timeout 50ms -terms 1,2                        # per-query deadline
//
// Keywords are term IDs of the generated vocabulary (0 = most frequent).
// Without -terms the tool anchors each query at a random object and uses
// its keywords, printing the chosen terms. With -stats, a metrics report
// (per-kind query counts, latency quantiles, buffer-pool hit rates)
// follows the query output; the bare argument "stats" does the same.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"time"

	"dsks"
	"dsks/internal/dataset"
	"dsks/internal/engine"
	"dsks/internal/metrics"
	"dsks/internal/obj"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run() error {
	preset := flag.String("preset", "SYN", "dataset preset (SYN, NA, TW, SF); ignored with -load")
	load := flag.String("load", "", "load a datagen-written dataset by path prefix")
	scale := flag.Int("scale", 200, "scale denominator for generated presets")
	seed := flag.Int64("seed", 1, "random seed")
	kind := flag.String("index", "SIF", "object index: IF, SIF, SIF-P")
	terms := flag.String("terms", "", "comma-separated query term IDs (empty: use a random object's keywords)")
	nterms := flag.Int("l", 2, "number of keywords taken from the anchor object when -terms is empty")
	deltaMax := flag.Float64("deltamax", 1500, "maximal network distance δmax")
	k := flag.Int("k", 0, "diversified result size k (0 = plain SK query)")
	lambda := flag.Float64("lambda", 0.8, "relevance/diversity trade-off λ")
	knn := flag.Int("knn", 0, "k-nearest-neighbor mode: return the knn closest matches (overrides -k)")
	alpha := flag.Float64("alpha", -1, "ranked mode: spatial weight α in [0,1] (overrides -k and -knn)")
	queries := flag.Int("queries", 1, "number of queries to run")
	timeout := flag.Duration("timeout", 0, "per-query deadline (0 = none)")
	stats := flag.Bool("stats", false, "print the metrics report after the queries")
	flag.Parse()
	if flag.Arg(0) == "stats" {
		*stats = true
	}

	var ds *dataset.Dataset
	var err error
	start := time.Now()
	if *load != "" {
		ds, err = dataset.Load(*load)
	} else {
		ds, err = dataset.GeneratePreset(dataset.Preset(*preset), *scale, *seed)
	}
	if err != nil {
		return err
	}
	generated := time.Since(start)
	st := ds.Stats()
	fmt.Printf("dataset %s: %d nodes, %d edges, %d objects, |V|=%d\n",
		ds.Name, st.Nodes, st.Edges, st.Objects, st.VocabSize)

	db, err := dsks.OpenDataset(ds, dsks.Options{Index: dsks.IndexKind(*kind)})
	if err != nil {
		return err
	}
	defer db.Close()
	fmt.Printf("index %s: %.2f MB, built in %v\n", *kind,
		float64(db.IndexSizeBytes())/(1<<20), db.BuildTime().Round(0))
	if *stats {
		fmt.Printf("set-up: generate %v, %v\n", generated.Round(time.Millisecond), db.SetupTimes())
	}
	fmt.Println()

	rng := rand.New(rand.NewSource(*seed + 100))
	for qi := 0; qi < *queries; qi++ {
		anchor := ds.Objects.Get(obj.ID(rng.Intn(ds.Objects.Len())))
		var queryTerms []obj.TermID
		if *terms != "" {
			for _, part := range strings.Split(*terms, ",") {
				t, err := strconv.Atoi(strings.TrimSpace(part))
				if err != nil || t < 0 || t >= ds.VocabSize {
					return fmt.Errorf("bad term %q (vocabulary is 0..%d)", part, ds.VocabSize-1)
				}
				queryTerms = append(queryTerms, obj.TermID(t))
			}
		} else {
			n := *nterms
			if n > len(anchor.Terms) {
				n = len(anchor.Terms)
			}
			perm := rng.Perm(len(anchor.Terms))
			for _, pi := range perm[:n] {
				queryTerms = append(queryTerms, anchor.Terms[pi])
			}
		}
		queryTerms = obj.NormalizeTerms(queryTerms)

		skq := dsks.SKQuery{Pos: anchor.Pos, Terms: queryTerms, DeltaMax: *deltaMax}
		fmt.Printf("query %d: edge %d offset %.1f, terms %v, δmax %.0f\n",
			qi+1, skq.Pos.Edge, skq.Pos.Offset, skq.Terms, skq.DeltaMax)

		ctx := context.Background()
		cancel := context.CancelFunc(func() {})
		if *timeout > 0 {
			ctx, cancel = context.WithTimeout(ctx, *timeout)
		}
		err := runQuery(ctx, db, skq, *k, *lambda, *knn, *alpha)
		cancel()
		switch {
		case errors.Is(err, dsks.ErrDeadlineExceeded):
			fmt.Printf("  query aborted: deadline of %v exceeded\n", *timeout)
		case err != nil:
			return err
		}
		fmt.Println()
	}
	if *stats {
		printStats(db.Snapshot())
	}
	return nil
}

// runQuery dispatches one query to the mode the flags select, against a
// view opened for it.
func runQuery(ctx context.Context, db *dsks.DB,
	skq dsks.SKQuery, k int, lambda float64, knn int, alpha float64) error {
	v, err := db.View(ctx)
	if err != nil {
		return err
	}
	defer v.Close()
	switch {
	case alpha >= 0:
		kk := k
		if kk <= 0 {
			kk = 10
		}
		res, err := v.Query(ctx, dsks.RankedQuery{
			Pos: skq.Pos, Terms: skq.Terms, K: kk, Alpha: alpha, DeltaMax: skq.DeltaMax,
		})
		if err != nil {
			return err
		}
		fmt.Printf("  ranked top-%d (α=%.2f); %d candidates seen, early-stop=%v\n",
			kk, alpha, res.Stats.Candidates, res.Stats.EarlyTerminate)
		for i, r := range res.Ranked {
			fmt.Printf("  #%d object %d score %.3f (%d/%d keywords, %.1f away)\n",
				i+1, r.Ref.ID, r.Score, r.Matched, len(skq.Terms), r.Dist)
		}
	case knn > 0:
		res, err := v.Query(ctx, dsks.KNNQuery{
			Pos: skq.Pos, Terms: skq.Terms, K: knn, MaxDist: skq.DeltaMax,
		})
		if err != nil {
			return err
		}
		fmt.Printf("  %d nearest matches (%d nodes expanded)\n",
			len(res.Candidates), res.Stats.NodesPopped)
		for i, c := range res.Candidates {
			fmt.Printf("  #%d object %d on edge %d at network distance %.1f\n",
				i+1, c.Ref.ID, c.Ref.Edge, c.Dist)
		}
	case k <= 0:
		res, err := v.Query(ctx, skq)
		if err != nil {
			return err
		}
		fmt.Printf("  %d candidates in %v (%d disk reads, %d nodes expanded)\n",
			len(res.Candidates), res.Elapsed.Round(0), res.DiskReads, res.Stats.NodesPopped)
		for i, c := range res.Candidates {
			if i == 10 {
				fmt.Printf("  ... %d more\n", len(res.Candidates)-10)
				break
			}
			fmt.Printf("  #%d object %d on edge %d at network distance %.1f\n",
				i+1, c.Ref.ID, c.Ref.Edge, c.Dist)
		}
	default:
		res, err := v.Query(ctx, dsks.DivQuery{SKQuery: skq, K: k, Lambda: lambda})
		if err != nil {
			return err
		}
		fmt.Printf("  COM chose %d objects (f = %.4f) in %v; %d disk reads, %d candidates seen, %d pruned, early-stop=%v\n",
			len(res.Candidates), res.F, res.Elapsed.Round(0),
			res.DiskReads, res.Stats.Candidates, res.Stats.Pruned, res.Stats.EarlyTerminate)
		for i, c := range res.Candidates {
			fmt.Printf("  #%d object %d on edge %d at network distance %.1f\n",
				i+1, c.Ref.ID, c.Ref.Edge, c.Dist)
		}
	}
	return nil
}

// printStats renders the metrics snapshot: one line per active query kind,
// then the buffer pools and what the queries' page memos held.
func printStats(snap metrics.Snapshot) {
	fmt.Printf("--- metrics (%d queries) ---\n", snap.TotalQueries())
	for _, kind := range metrics.Kinds() {
		q, ok := snap.Queries[kind]
		if !ok || q.Count == 0 {
			continue
		}
		fmt.Printf("%-12s n=%-4d err=%d canceled=%d  p50=%v p95=%v p99=%v mean=%v max=%v\n",
			kind, q.Count, q.Errors, q.Canceled,
			q.P50.Round(time.Microsecond), q.P95.Round(time.Microsecond),
			q.P99.Round(time.Microsecond), q.Mean.Round(time.Microsecond),
			q.Max.Round(time.Microsecond))
		fmt.Printf("             nodes=%d edges=%d candidates=%d pruned=%d pairdist=%d diskreads=%d\n",
			q.NodesPopped, q.EdgesVisited, q.Candidates, q.Pruned, q.PairDistCalcs, q.DiskReads)
	}
	for _, name := range snap.PoolNames() {
		p := snap.Pools[name]
		fmt.Printf("pool %-10s logical=%-8d disk=%-8d hit-rate=%.1f%%\n",
			name, p.LogicalReads, p.DiskReads, 100*p.HitRate)
	}
	if n := snap.Counters[engine.CounterPagesQueries]; n > 0 {
		fmt.Printf("index pages held per query (outside the buffer): mean=%.1f max=%d\n",
			float64(snap.Counters[engine.CounterPagesHeld])/float64(n), snap.Counters[engine.GaugePagesHeldMax])
		fmt.Printf("index probes that left their leaf for an overflow list: %d\n", snap.Counters[engine.CounterOverflowReads])
	}
}
