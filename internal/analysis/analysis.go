// Package analysis is a minimal, dependency-free analog of the
// golang.org/x/tools/go/analysis vocabulary, built entirely on the
// standard library's go/ast, go/types and go/importer. It exists so the
// project can ship machine-checked invariants (see cmd/dsks-lint and
// docs/LINTING.md) without adding a module dependency: packages are
// loaded with `go list -export`, type-checked from source against the
// build cache's export data, and each Analyzer walks the typed syntax
// of one package at a time.
//
// The shapes mirror go/analysis deliberately — Analyzer{Name, Doc, Run},
// Pass{Fset, Files, Pkg, Info, Report} — so the analyzers can migrate to
// the real framework mechanically if x/tools ever becomes available.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// An Analyzer is one static check: a name, a one-paragraph description of
// the invariant it guards, and a Run function applied to one package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in the
	// //lint:ignore suppression comments.
	Name string
	// Doc describes the invariant the analyzer enforces.
	Doc string
	// Run inspects one package and reports diagnostics through the pass.
	Run func(*Pass) error
}

// A Pass is one analyzer applied to one type-checked package.
type Pass struct {
	// Analyzer is the check being run.
	Analyzer *Analyzer
	// Fset maps token positions of Files back to file and line.
	Fset *token.FileSet
	// Files is the package's parsed syntax (non-test files only).
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// Info holds the type information recorded while checking Files.
	Info *types.Info

	diags []Diagnostic
}

// A Diagnostic is one reported violation.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Report records a diagnostic at pos.
func (p *Pass) Report(pos token.Pos, msg string) {
	p.diags = append(p.diags, Diagnostic{Pos: pos, Message: msg})
}

// Reportf records a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(pos, fmt.Sprintf(format, args...))
}

// A Finding is a diagnostic resolved to a file position, ready to print.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// RunAnalyzer applies a to pkg and returns the findings that are not
// suppressed by a //lint:ignore comment, sorted by position. Every
// analyzer sees one package at a time: what it knows about a function it
// learns from that package's syntax alone.
func RunAnalyzer(pkg *Package, a *Analyzer) ([]Finding, error) {
	pass := &Pass{
		Analyzer: a,
		Fset:     pkg.Fset,
		Files:    pkg.Files,
		Pkg:      pkg.Types,
		Info:     pkg.Info,
	}
	if err := a.Run(pass); err != nil {
		return nil, fmt.Errorf("analyzer %s on %s: %w", a.Name, pkg.Path, err)
	}
	sup := suppressedLines(pkg.Fset, pkg.Files, a.Name)
	var out []Finding
	for _, d := range pass.diags {
		pos := pkg.Fset.Position(d.Pos)
		if sup[pos.Filename][pos.Line] {
			continue
		}
		out = append(out, Finding{Analyzer: a.Name, Pos: pos, Message: d.Message})
	}
	SortFindings(out)
	return out, nil
}

// suppressedLines collects the lines muted for the named analyzer by
// comments of the form
//
//	//lint:ignore <name>[,<name>...] <reason>
//
// A trailing comment suppresses its own line; a comment on its own line
// suppresses the line below it. The reason is mandatory: an ignore
// without one does not suppress anything.
func suppressedLines(fset *token.FileSet, files []*ast.File, name string) map[string]map[int]bool {
	out := map[string]map[int]bool{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "//lint:ignore ")
				if !ok {
					continue
				}
				fields := strings.Fields(rest)
				if len(fields) < 2 { // names plus a non-empty reason
					continue
				}
				names := strings.Split(fields[0], ",")
				matched := false
				for _, n := range names {
					if n == name {
						matched = true
						break
					}
				}
				if !matched {
					continue
				}
				pos := fset.Position(c.Pos())
				if out[pos.Filename] == nil {
					out[pos.Filename] = map[int]bool{}
				}
				out[pos.Filename][pos.Line] = true
				out[pos.Filename][pos.Line+1] = true
			}
		}
	}
	return out
}
