// Command expts regenerates the tables and figures of the paper's
// evaluation (Section 5) over the synthetic dataset analogues.
//
// Usage:
//
//	expts -fig all                 # every figure at the default scale
//	expts -fig 7,11,16a            # selected figures
//	expts -fig table2 -scale 50    # closer to paper scale (slower)
//	expts -queries 200 -iolat 100us
//
// The scale flag divides the paper's dataset sizes; -scale 1 is full paper
// scale (hours), -scale 100 is the default (minutes), -scale 400 runs in
// seconds.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"dsks/internal/experiments"
)

func main() {
	figures := make(map[string]func(experiments.Config) (*experiments.Result, error), len(experiments.Figures))
	var order []string
	for _, f := range experiments.Figures {
		figures[f.ID] = f.Run
		order = append(order, f.ID)
	}
	fig := flag.String("fig", "all", "comma-separated figure ids ("+strings.Join(order, ", ")+") or 'all'")
	scale := flag.Int("scale", 100, "dataset scale denominator (1 = paper scale)")
	queries := flag.Int("queries", 50, "workload size (paper: 500)")
	seed := flag.Int64("seed", 1, "random seed")
	iolat := flag.Duration("iolat", 0, "synthetic per-miss I/O latency (e.g. 100us)")
	plot := flag.Bool("plot", false, "print unicode sparklines for each figure's series")
	flag.Parse()

	var ids []string
	if *fig == "all" {
		ids = order
	} else {
		ids = strings.Split(*fig, ",")
	}
	cfg := experiments.Config{
		Scale:     *scale,
		Queries:   *queries,
		Seed:      *seed,
		IOLatency: *iolat,
		Out:       os.Stdout,
	}
	for _, id := range ids {
		id = strings.TrimSpace(id)
		fn, ok := figures[id]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown figure %q (known: %s)\n", id, strings.Join(order, ", "))
			os.Exit(2)
		}
		start := time.Now()
		r, err := fn(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "figure %s failed: %v\n", id, err)
			os.Exit(1)
		}
		if *plot {
			r.FprintSparks(os.Stdout)
		}
		fmt.Printf("(figure %s regenerated in %v)\n\n", id, time.Since(start).Round(time.Millisecond))
	}
}
