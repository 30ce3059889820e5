package dsks_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestExportedErrorsWrap holds the error contract of the packages whose
// callers classify failures with errors.Is: the public API, the shard
// router (the server routes on ErrShardDown and ErrPartialResult) and the
// landmark oracle (OpenPath degrades to a rebuild on ErrBadOracle). An
// exported function may return a fmt.Errorf only if its format is a
// literal that wraps something with %w; closures are not return sites of
// the API.
func TestExportedErrorsWrap(t *testing.T) {
	for _, dir := range []string{".", "internal/shard", "internal/alt"} {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		fset := token.NewFileSet()
		for _, e := range entries {
			name := e.Name()
			if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil || !fd.Name.IsExported() {
					continue
				}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.FuncLit:
						return false
					case *ast.ReturnStmt:
						for _, res := range n.Results {
							if isErrorf(res) && !wrapsWithW(res.(*ast.CallExpr)) {
								t.Errorf("%s: %s returns a fmt.Errorf that wraps nothing with %%w",
									fset.Position(res.Pos()), fd.Name.Name)
							}
						}
					}
					return true
				})
			}
		}
	}
}

func isErrorf(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Errorf" {
		return false
	}
	pkg, ok := sel.X.(*ast.Ident)
	return ok && pkg.Name == "fmt"
}

func wrapsWithW(call *ast.CallExpr) bool {
	if len(call.Args) == 0 {
		return false
	}
	lit, ok := call.Args[0].(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return false
	}
	format, err := strconv.Unquote(lit.Value)
	return err == nil && strings.Contains(format, "%w")
}
