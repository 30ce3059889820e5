// Command bench is the repository's benchmark spine (BENCHMARK.json).
//
// An end-to-end run (-trace 0) builds cmd/dsks-serve, boots it as a child
// process once per workload, drives it over loopback HTTP with a fixed,
// seeded op sequence from this one process, checks every answer, and
// prints the end-to-end metrics. A traced run (-trace 1) replays a prefix
// of the same ops in-process through the server's handler, records a span
// at every layer boundary this package can see from outside, runs direct
// probes of each layer on the same dataset, and prints the per-layer
// metrics; its spans go to bench/out/trace-<workload>.json.
//
//	go run ./bench                       # every workload, end to end
//	go run ./bench -workload div-wide    # one workload
//	go run ./bench -workload div-wide -trace 1
//
// The last line of standard output is one JSON object: the run's
// verdict and the metrics BENCHMARK.json declares for the chosen mode.
// See bench/README.md for the workloads, the metrics and how to compare
// two commits.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"testing"

	"dsks"
)

// declared is the part of BENCHMARK.json this program reads: which
// metrics each mode must print on its last line.
type declared struct {
	RunSeconds int `json:"run_seconds"`
	EndToEnd   []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run() error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	var decl declared
	if err := json.Unmarshal(raw, &decl); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}

	testing.Init() // the probes use testing.Benchmark, which reads the test flags
	var (
		name    = flag.String("workload", "", "workload to run (default: all of them, one after another)")
		seed    = flag.Int64("seed", 7, "workload seed: the queries and the op sequence are drawn from it")
		seconds = flag.Int("seconds", decl.RunSeconds, "measured seconds per run; sizes the fixed op count")
		trace   = flag.Int("trace", 0, "0: end-to-end run against the served binary; 1: in-process traced run and layer probes")
		passes  = flag.Int("passes", defaultPasses, "measured passes per end-to-end run")
	)
	flag.Parse()
	if *seconds < 1 || *passes < 1 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		return fmt.Errorf("bad arguments: -seconds and -passes must be positive, -trace 0 or 1, no positional arguments")
	}
	if err := flag.Set("test.benchtime", probeTime.String()); err != nil {
		return err
	}

	selected := workloads
	if *name != "" {
		w, ok := workloadByName(*name)
		if !ok {
			return fmt.Errorf("unknown workload %q", *name)
		}
		selected = []workload{w}
	}
	bin, err := buildServer()
	if err != nil {
		return err
	}
	// The end-to-end run needs the dataset only to draw queries from it;
	// a traced run writes to its own copy, so it generates one per workload.
	var ds *dsks.Dataset
	if *trace == 0 {
		if ds, err = dsks.GeneratePreset(datasetPreset, datasetScale, datasetSeed); err != nil {
			return err
		}
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	for _, w := range selected {
		var out *outcome
		if *trace == 1 {
			out, err = runTrace(ctx, bin, w, *seed, *seconds, *passes)
		} else {
			out, err = runE2E(ctx, bin, ds, w, *seed, *seconds, *passes)
		}
		if err != nil {
			return fmt.Errorf("workload %s: %w", w.name, err)
		}
		if err := report(w, out, decl, *trace == 1); err != nil {
			return fmt.Errorf("workload %s: %w", w.name, err)
		}
	}
	return nil
}

// report prints the run for a reader, then the verdict line.
func report(w workload, out *outcome, decl declared, traced bool) error {
	fmt.Printf("workload %s: %s\n", w.name, w.why)
	byName := make(map[string]metric, len(out.metrics))
	for _, m := range out.metrics {
		byName[m.name] = m
		if len(m.passes) > 1 {
			fmt.Printf("  %-34s %14.4f %-6s spread %4.1f%% over passes %.4f\n", m.name, m.value, m.unit, 100*spread(m.passes), m.passes)
		} else {
			fmt.Printf("  %-34s %14.4f %s\n", m.name, m.value, m.unit)
		}
	}
	fmt.Printf("  attempted %d, failed %d\n", out.attempted, out.failed)
	for _, note := range out.notes {
		fmt.Printf("  note: %s\n", note)
	}

	want := decl.EndToEnd
	if traced {
		want = decl.PerLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{out.failed == 0, out.attempted, out.failed, make(map[string]value, len(want))}
	for _, d := range want {
		m, ok := byName[d.Name]
		if !ok {
			return fmt.Errorf("BENCHMARK.json declares %s, which this run did not measure", d.Name)
		}
		if m.unit != d.Unit {
			return fmt.Errorf("BENCHMARK.json gives %s the unit %q, the run measured %q", d.Name, d.Unit, m.unit)
		}
		line.Metrics[d.Name] = value{m.value, m.unit}
	}
	enc, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(enc))
	if out.failed > 0 {
		return fmt.Errorf("%d of %d operations failed their checks", out.failed, out.attempted)
	}
	return nil
}
