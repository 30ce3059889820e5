// Command dsks-lint is the project's multichecker: it runs the seven
// dsks-specific analyzers (see docs/LINTING.md) over the packages
// matching the given patterns and exits non-zero when any invariant is
// violated. Packages load in parallel and are analyzed in import-graph
// order so cross-package facts (viewclose, commitorder, atomicfield)
// flow from dependencies to dependents. With -vet it additionally
// delegates to `go vet` on the same patterns, so one invocation covers
// both the stock and the project-specific passes.
//
// Usage:
//
//	dsks-lint [-list] [-run name,...] [-format text|json|sarif] [-o file] [-debug] [-vet] [packages]
//
// With -format=text findings print as file:line:col: message; json
// emits a flat array and sarif a SARIF 2.1.0 document (what CI uploads
// as the code-scanning artifact). -debug prints load time, per-analyzer
// wall time, and fact-store contents to stderr. Suppress a deliberate
// violation with a trailing or preceding comment:
//
//	//lint:ignore <analyzer> <reason>
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"time"

	"dsks/internal/analysis"
	"dsks/internal/analysis/atomicfield"
	"dsks/internal/analysis/commitorder"
	"dsks/internal/analysis/countedio"
	"dsks/internal/analysis/detrand"
	"dsks/internal/analysis/errsentinel"
	"dsks/internal/analysis/lockio"
	"dsks/internal/analysis/viewclose"
)

var analyzers = []*analysis.Analyzer{
	errsentinel.Analyzer,
	lockio.Analyzer,
	detrand.Analyzer,
	countedio.Analyzer,
	viewclose.Analyzer,
	commitorder.Analyzer,
	atomicfield.Analyzer,
}

func main() {
	list := flag.Bool("list", false, "list the analyzers and exit")
	run := flag.String("run", "", "comma-separated analyzer names to run (default: all)")
	format := flag.String("format", "text", "output format: text, json, or sarif")
	out := flag.String("o", "", "write findings to this file instead of stdout")
	debug := flag.Bool("debug", false, "print load/analyzer timings and fact keys to stderr")
	vet := flag.Bool("vet", false, "also run 'go vet' on the same patterns")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: dsks-lint [-list] [-run name,...] [-format text|json|sarif] [-o file] [-debug] [-vet] [packages]\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	selected := analyzers
	if *run != "" {
		byName := map[string]*analysis.Analyzer{}
		for _, a := range analyzers {
			byName[a.Name] = a
		}
		selected = nil
		for _, name := range strings.Split(*run, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fatalf("unknown analyzer %q (try -list)", name)
			}
			selected = append(selected, a)
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	loadStart := time.Now()
	pkgs, err := analysis.Load(".", patterns...)
	if err != nil {
		fatalf("%v", err)
	}
	loadTime := time.Since(loadStart)

	runner := &analysis.Runner{}
	findings, err := runner.Run(pkgs, selected)
	if err != nil {
		fatalf("%v", err)
	}

	if *debug {
		fmt.Fprintf(os.Stderr, "dsks-lint: loaded %d packages in %s\n", len(pkgs), loadTime.Round(time.Millisecond))
		for _, line := range runner.Timings() {
			fmt.Fprintf(os.Stderr, "dsks-lint: %s\n", line)
		}
		for _, a := range selected {
			if keys := runner.Facts.Keys(a.Name); len(keys) > 0 {
				fmt.Fprintf(os.Stderr, "dsks-lint: %s exported %d facts\n", a.Name, len(keys))
			}
		}
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatalf("%v", err)
		}
		defer f.Close()
		w = f
	}

	baseDir, err := os.Getwd()
	if err != nil {
		baseDir = ""
	}
	switch *format {
	case "text":
		for _, f := range findings {
			fmt.Fprintf(w, "%s: %s\n", f.Pos, f.Message)
		}
	case "json":
		if err := analysis.WriteJSON(w, baseDir, findings); err != nil {
			fatalf("%v", err)
		}
	case "sarif":
		if err := analysis.WriteSARIF(w, baseDir, selected, findings); err != nil {
			fatalf("%v", err)
		}
	default:
		fatalf("unknown format %q (want text, json, or sarif)", *format)
	}

	failed := len(findings) > 0

	if *vet {
		cmd := exec.Command("go", append([]string{"vet"}, patterns...)...)
		cmd.Stdout = os.Stdout
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			failed = true
		}
	}

	if failed {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "dsks-lint: "+format+"\n", args...)
	os.Exit(2)
}
