// Command dsks-lint is the project's multichecker: it runs the five
// dsks-specific analyzers (see docs/LINTING.md) over the packages
// matching the given patterns and exits non-zero when any invariant is
// violated. Each analyzer sees one package at a time, so packages load
// and are analyzed in parallel. `go vet` runs beside it (make lint, CI)
// and covers what the stock passes check, copylocks among them.
//
// Usage:
//
//	dsks-lint [-list] [-run name,...] [-format text|sarif] [-o file] [-debug] [packages]
//
// With -format=text findings print as file:line:col: message; sarif
// emits a SARIF 2.1.0 document (what CI uploads as the code-scanning
// artifact). -debug prints load time and per-analyzer wall time to
// stderr. Suppress a deliberate violation with a trailing or preceding
// comment:
//
//	//lint:ignore <analyzer> <reason>
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"dsks/internal/analysis"
	"dsks/internal/analysis/commitorder"
	"dsks/internal/analysis/countedio"
	"dsks/internal/analysis/detrand"
	"dsks/internal/analysis/errsentinel"
	"dsks/internal/analysis/lockio"
)

var analyzers = []*analysis.Analyzer{
	errsentinel.Analyzer,
	lockio.Analyzer,
	detrand.Analyzer,
	countedio.Analyzer,
	commitorder.Analyzer,
}

func main() {
	list := flag.Bool("list", false, "list the analyzers and exit")
	run := flag.String("run", "", "comma-separated analyzer names to run (default: all)")
	format := flag.String("format", "text", "output format: text or sarif")
	out := flag.String("o", "", "write findings to this file instead of stdout")
	debug := flag.Bool("debug", false, "print load and analyzer timings to stderr")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: dsks-lint [-list] [-run name,...] [-format text|sarif] [-o file] [-debug] [packages]\n\n")
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
	case "sarif":
		if err := analysis.WriteSARIF(w, baseDir, selected, findings); err != nil {
			fatalf("%v", err)
		}
	default:
		fatalf("unknown format %q (want text or sarif)", *format)
	}

	if len(findings) > 0 {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "dsks-lint: "+format+"\n", args...)
	os.Exit(2)
}
