package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// CalleeFunc resolves the function or method a call expression invokes,
// or nil when the callee is not a known func (e.g. a conversion, a
// builtin, or a function-typed variable).
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// ReceiverTypeName returns the name of fn's receiver's named type
// (pointers dereferenced), or "" for a plain function.
func ReceiverTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	return named.Obj().Name()
}

// InPackage reports whether fn is declared in a package whose import
// path is pathSuffix or ends with "/"+pathSuffix. Suffix matching lets
// analyzers recognize both the real module packages and the stubs that
// analysistest trees declare under the same tail path.
func InPackage(fn *types.Func, pathSuffix string) bool {
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	return PathHasSuffix(fn.Pkg().Path(), pathSuffix)
}

// PathHasSuffix reports whether an import path equals suffix or ends
// with "/"+suffix.
func PathHasSuffix(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}
