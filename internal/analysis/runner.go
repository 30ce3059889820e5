package analysis

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"
)

// A Runner applies a set of analyzers to a set of packages. Every pass
// sees one package alone, so packages run in any order, up to GOMAXPROCS
// at a time; the analyzers of one package run sequentially on its
// goroutine.
type Runner struct {
	mu      sync.Mutex
	timings map[string]time.Duration
}

// Run analyzes every package with every analyzer and returns the merged,
// position-sorted findings.
func (r *Runner) Run(pkgs []*Package, analyzers []*Analyzer) ([]Finding, error) {
	sem := make(chan struct{}, max(1, runtime.GOMAXPROCS(0)))
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		findings []Finding
		firstErr error
	)
	for _, p := range pkgs {
		wg.Add(1)
		go func(p *Package) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			for _, a := range analyzers {
				start := time.Now()
				fs, err := RunAnalyzer(p, a)
				r.addTiming(a.Name, time.Since(start))
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				findings = append(findings, fs...)
				mu.Unlock()
				if err != nil {
					return
				}
			}
		}(p)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	SortFindings(findings)
	return findings, nil
}

// addTiming accumulates per-analyzer wall time across packages.
func (r *Runner) addTiming(name string, d time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.timings == nil {
		r.timings = map[string]time.Duration{}
	}
	r.timings[name] += d
}

// Timings returns the cumulative per-analyzer wall time of the run,
// formatted one analyzer per line, slowest first (dsks-lint -debug).
func (r *Runner) Timings() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	type entry struct {
		name string
		d    time.Duration
	}
	entries := make([]entry, 0, len(r.timings))
	for name, d := range r.timings {
		entries = append(entries, entry{name, d})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].d > entries[j].d })
	out := make([]string, len(entries))
	for i, e := range entries {
		out[i] = fmt.Sprintf("%-12s %s", e.name, e.d.Round(time.Microsecond))
	}
	return out
}

// SortFindings orders findings by file, line, column, then analyzer.
func SortFindings(findings []Finding) {
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i].Pos, findings[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return findings[i].Analyzer < findings[j].Analyzer
	})
}
