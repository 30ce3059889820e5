// Package analysistest runs an Analyzer over GOPATH-style testdata trees
// and checks its diagnostics against `// want` annotations, mirroring
// golang.org/x/tools/go/analysis/analysistest.
//
// A testdata tree lives at <analyzer dir>/testdata/src/<importpath>/.
// Each expected diagnostic is declared on the offending line:
//
//	return pool.Get(id) // want `lockio`
//
// The annotation payload is one or more space-separated quoted or
// backquoted regular expressions; each must match a distinct diagnostic
// reported on that line, and every diagnostic must be matched by an
// annotation. Lines suppressed with //lint:ignore are dropped before
// matching, so testdata can exercise the suppression mechanism with an
// annotated line that carries no want.
package analysistest

import (
	"go/ast"
	"go/token"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"dsks/internal/analysis"
)

// Run loads each package path from testdata root dir and applies a,
// failing t on any mismatch between diagnostics and want annotations.
// A testdata tree may hold several packages importing one another; each
// listed package is analyzed on its own, exactly as dsks-lint sees it.
func Run(t *testing.T, dir string, a *analysis.Analyzer, paths ...string) {
	t.Helper()
	for _, path := range paths {
		pkg, err := analysis.LoadTestdata(dir, path)
		if err != nil {
			t.Fatalf("loading testdata package %s: %v", path, err)
		}
		findings, err := analysis.RunAnalyzer(pkg, a)
		if err != nil {
			t.Fatalf("running %s on %s: %v", a.Name, path, err)
		}
		checkWants(t, pkg, findings)
	}
}

// expectation is one unmatched want annotation.
type expectation struct {
	file string
	line int
	rx   *regexp.Regexp
}

func checkWants(t *testing.T, pkg *analysis.Package, findings []analysis.Finding) {
	t.Helper()
	wants := collectWants(t, pkg.Fset, pkg.Files)
	for _, f := range findings {
		matched := false
		for _, w := range wants {
			if w.rx == nil || w.file != f.Pos.Filename || w.line != f.Pos.Line {
				continue
			}
			if w.rx.MatchString(f.Message) {
				w.rx = nil // consume
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic: %s", f.Pos, f.Message)
		}
	}
	for _, w := range wants {
		if w.rx != nil {
			t.Errorf("%s:%d: no diagnostic matching %q", w.file, w.line, w.rx)
		}
	}
}

// collectWants parses every `// want ...` comment in the package.
func collectWants(t *testing.T, fset *token.FileSet, files []*ast.File) []*expectation {
	t.Helper()
	var wants []*expectation
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				rest, ok := strings.CutPrefix(text, "want ")
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, pat := range splitPatterns(t, pos, rest) {
					rx, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s: bad want pattern %q: %v", pos, pat, err)
					}
					wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, rx: rx})
				}
			}
		}
	}
	return wants
}

// splitPatterns parses the payload of a want comment: a sequence of
// double-quoted or backquoted strings.
func splitPatterns(t *testing.T, pos token.Position, s string) []string {
	t.Helper()
	var out []string
	s = strings.TrimSpace(s)
	for s != "" {
		switch s[0] {
		case '`':
			end := strings.IndexByte(s[1:], '`')
			if end < 0 {
				t.Fatalf("%s: unterminated backquote in want comment", pos)
			}
			out = append(out, s[1:1+end])
			s = strings.TrimSpace(s[end+2:])
		case '"':
			// Find the closing quote, honoring escapes.
			i := 1
			for i < len(s) && (s[i] != '"' || s[i-1] == '\\') {
				i++
			}
			if i >= len(s) {
				t.Fatalf("%s: unterminated quote in want comment", pos)
			}
			unq, err := strconv.Unquote(s[:i+1])
			if err != nil {
				t.Fatalf("%s: bad quoted want pattern %q: %v", pos, s[:i+1], err)
			}
			out = append(out, unq)
			s = strings.TrimSpace(s[i+1:])
		default:
			t.Fatalf("%s: want patterns must be quoted or backquoted, got %q", pos, s)
		}
	}
	return out
}
