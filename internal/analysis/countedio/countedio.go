// Package countedio guards the I/O accounting the paper's evaluation
// depends on: inside internal/storage, every code path that performs a
// raw page read or write (PageFile's unexported read/write methods) must
// also record it in the IOStats counters, or the reported disk-access
// numbers silently undercount. The read/write methods themselves are the
// counted primitives and are exempt.
package countedio

import (
	"go/ast"
	"go/token"
	"go/types"

	"dsks/internal/analysis"
)

// Analyzer flags uncounted raw page I/O in the storage package.
var Analyzer = &analysis.Analyzer{
	Name: "countedio",
	Doc: "In internal/storage, a function that calls the raw page-store " +
		"read (write) must also call IOStats.addRead (addWrite), keeping " +
		"the paper's disk-access counters truthful.",
	Run: run,
}

func run(pass *analysis.Pass) error {
	if !analysis.PathHasSuffix(pass.Pkg.Path(), "internal/storage") {
		return nil
	}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fd.Name.Name == "read" || fd.Name.Name == "write" {
				continue // the page-store primitives themselves
			}
			checkFunc(pass, fd)
		}
	}
	return nil
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	var reads, writes []token.Pos
	var countsRead, countsWrite bool
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := analysis.CalleeFunc(pass.Info, call)
		if fn == nil || !analysis.InPackage(fn, "internal/storage") {
			return true
		}
		switch {
		case isPageStoreIO(fn):
			if fn.Name() == "read" {
				reads = append(reads, call.Pos())
			} else {
				writes = append(writes, call.Pos())
			}
		case analysis.ReceiverTypeName(fn) == "IOStats":
			switch fn.Name() {
			case "addRead":
				countsRead = true
			case "addWrite":
				countsWrite = true
			}
		}
		return true
	})
	if !countsRead {
		for _, pos := range reads {
			pass.Reportf(pos,
				"countedio: raw page read is not recorded in IOStats (no addRead on this path); the paper's disk-access counts depend on every read being counted")
		}
	}
	if !countsWrite {
		for _, pos := range writes {
			pass.Reportf(pos,
				"countedio: raw page write is not recorded in IOStats (no addWrite on this path); the paper's disk-access counts depend on every write being counted")
		}
	}
}

// isPageStoreIO reports whether fn is a raw page read/write: a method
// named read or write taking (PageID, []byte) on a storage type.
func isPageStoreIO(fn *types.Func) bool {
	if fn.Name() != "read" && fn.Name() != "write" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || sig.Params().Len() != 2 {
		return false
	}
	named, ok := sig.Params().At(0).Type().(*types.Named)
	return ok && named.Obj().Name() == "PageID"
}
