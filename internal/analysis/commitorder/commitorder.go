// Package commitorder checks the mutation commit protocol's ordering
// (docs/CONCURRENCY.md, docs/DURABILITY.md): within one mutation,
//
//	wal.Log.Append          (1: the record exists before any effect)
//	BufferPool.Publish      (2: pages installed while still unreachable)
//	roots.Store             (3: the root swap makes the LSN reachable)
//
// must happen in that order. Publishing before logging makes a crash
// lose an acknowledged mutation, and storing roots before publishing lets
// a reader pin an LSN whose pages are not installed. No test catches the
// second: with Publish and roots.Store swapped in DB.publish, the test
// suites pass, the reader/mutation race suites included.
//
// Each path is tracked as a mutation lifecycle — idle → logged →
// published → visible — and ops that begin a new mutation from a
// completed state are fine: WAL replay is Publish/Store per record with
// no Append (the records exist), non-WAL databases publish without
// logging, and startup installs roots from idle. Only two transitions
// are protocol violations: roots.Store while a mutation is logged but
// unpublished (its pages are not installed, yet its LSN becomes
// reachable), and wal.Append while pages are published but not yet
// visible (the previous mutation never completed its root swap).
//
// The check is flow-aware within a function (branch arms are tracked
// separately) and sees through the package's own helpers: every function
// gets a summary — the ordered protocol operations it (transitively)
// performs — computed to a fixpoint over the package, and a call site
// replays the callee's summary into the caller's sequence, so
// `db.publish(...)` counts as Publish-then-RootsStore wherever it is
// called. The protocol lives in package dsks, so helpers in other
// packages are not followed. Waiting for durability under a latch is
// lockio's check.
package commitorder

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"

	"dsks/internal/analysis"
)

// Analyzer reports commit-protocol operations that run out of order.
var Analyzer = &analysis.Analyzer{
	Name: "commitorder",
	Doc: "commit-protocol operations must keep their order within one " +
		"mutation — wal.Append before pool.Publish before roots.Store; " +
		"a call to a helper of the same package counts as the operations " +
		"it performs.",
	Run: run,
}

// Protocol ranks, doubling as the lifecycle states a path moves
// through (0 = idle, no mutation in flight).
const (
	opAppend  = 1
	opPublish = 2
	opRoots   = 3
)

// opName names each rank in diagnostics.
var opName = map[int]string{
	opAppend:  "wal.Append",
	opPublish: "pool.Publish",
	opRoots:   "roots.Store",
}

// maxOps caps a summary: deep call chains repeat the same protocol, and
// 32 ops is far beyond one commit.
const maxOps = 32

func run(pass *analysis.Pass) error {
	var decls []*ast.FuncDecl
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				decls = append(decls, fd)
			}
		}
	}
	c := &checker{pass: pass, summary: map[*types.Func][]int{}, reported: map[string]bool{}}
	c.summarize(decls)
	for _, fd := range decls {
		var st ostate
		c.stmts(fd.Body.List, &st)
	}
	return nil
}

type checker struct {
	pass *analysis.Pass
	// summary maps each function of the package to the protocol ops it
	// performs, callees' ops inlined.
	summary map[*types.Func][]int
	// reported dedupes diagnostics: replaying a summary can surface the
	// same transition several times at one call site.
	reported map[string]bool
}

// summarize computes every function's summary to a fixpoint, so call
// chains (Insert → applyInsertAt → publish) resolve whatever their
// declaration order.
func (c *checker) summarize(decls []*ast.FuncDecl) {
	for changed := true; changed; {
		changed = false
		for _, fd := range decls {
			fn, ok := c.pass.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			if ops := c.collectOps(fd.Body); !slices.Equal(c.summary[fn], ops) {
				c.summary[fn] = ops
				changed = true
			}
		}
	}
}

// collectOps gathers body's protocol ops in source order, inlining
// callee summaries. Goroutine bodies and function literals run on their
// own schedule and are excluded.
func (c *checker) collectOps(body *ast.BlockStmt) []int {
	var ops []int
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt, *ast.FuncLit:
			return false
		case *ast.CallExpr:
			ops = append(ops, c.callOps(n)...)
		}
		return len(ops) < maxOps
	})
	return ops[:min(len(ops), maxOps)]
}

// callOps returns the protocol ops one call contributes: the call's own
// rank when it is a recognized operation, else the callee's summary.
func (c *checker) callOps(call *ast.CallExpr) []int {
	if r, ok := directOp(c.pass, call); ok {
		return []int{r}
	}
	if fn := analysis.CalleeFunc(c.pass.Info, call); fn != nil {
		return c.summary[fn.Origin()]
	}
	return nil
}

// directOp recognizes the protocol operations themselves.
func directOp(pass *analysis.Pass, call *ast.CallExpr) (int, bool) {
	fn := analysis.CalleeFunc(pass.Info, call)
	if fn == nil {
		return 0, false
	}
	recv := analysis.ReceiverTypeName(fn)
	switch {
	case fn.Name() == "Append" && recv == "Log" && analysis.InPackage(fn, "internal/wal"):
		return opAppend, true
	case fn.Name() == "Publish" && recv == "BufferPool" && analysis.InPackage(fn, "internal/storage"):
		return opPublish, true
	case fn.Name() == "Store" && recv == "Pointer" && analysis.InPackage(fn, "sync/atomic") && isRootsField(call):
		return opRoots, true
	}
	return 0, false
}

// isRootsField reports whether the Store receiver is a field or
// variable named "roots" — the database's published root pointer.
func isRootsField(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	switch x := ast.Unparen(sel.X).(type) {
	case *ast.SelectorExpr:
		return x.Sel.Name == "roots"
	case *ast.Ident:
		return x.Name == "roots"
	}
	return false
}

// ostate is the per-path protocol state: the current mutation's
// lifecycle stage and the call that moved it there.
type ostate struct {
	stage int
	pos   token.Pos
}

func (c *checker) stmts(stmts []ast.Stmt, st *ostate) {
	for _, s := range stmts {
		c.stmt(s, st)
	}
}

// stmt walks one statement. Branch arms and loop bodies run on a copy of
// the path state: what happens inside them does not carry past them.
func (c *checker) stmt(s ast.Stmt, st *ostate) {
	switch s := s.(type) {
	case *ast.IfStmt:
		if s.Init != nil {
			c.stmt(s.Init, st)
		}
		c.scan(s.Cond, st)
		thenSt, elseSt := *st, *st
		c.stmts(s.Body.List, &thenSt)
		if s.Else != nil {
			c.stmt(s.Else, &elseSt)
		}
	case *ast.ForStmt:
		if s.Init != nil {
			c.stmt(s.Init, st)
		}
		c.scan(s.Cond, st)
		body := *st
		c.stmts(s.Body.List, &body)
	case *ast.RangeStmt:
		c.scan(s.X, st)
		body := *st
		c.stmts(s.Body.List, &body)
	case *ast.SwitchStmt:
		if s.Init != nil {
			c.stmt(s.Init, st)
		}
		c.scan(s.Tag, st)
		c.clauses(s.Body, st)
	case *ast.TypeSwitchStmt:
		c.clauses(s.Body, st)
	case *ast.SelectStmt:
		c.clauses(s.Body, st)
	case *ast.BlockStmt:
		c.stmts(s.List, st)
	case *ast.LabeledStmt:
		c.stmt(s.Stmt, st)
	case *ast.DeferStmt, *ast.GoStmt:
		// A deferred call runs at an unknowable point in the sequence,
		// and a goroutine is its own timeline.
	default:
		c.scan(s, st)
	}
}

// clauses walks each case or comm clause of a switch or select on its
// own copy of the path state.
func (c *checker) clauses(body *ast.BlockStmt, st *ostate) {
	for _, cl := range body.List {
		arm := *st
		switch cl := cl.(type) {
		case *ast.CaseClause:
			c.stmts(cl.Body, &arm)
		case *ast.CommClause:
			c.stmts(cl.Body, &arm)
		}
	}
}

// scan applies every call in n (in source order) to the path state.
func (c *checker) scan(n ast.Node, st *ostate) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt, *ast.FuncLit:
			return false
		case *ast.CallExpr:
			c.apply(n, st)
		}
		return true
	})
}

// apply replays a call's protocol ops into the path state, reporting
// violating transitions at the call site.
func (c *checker) apply(call *ast.CallExpr, st *ostate) {
	ops := c.callOps(call)
	if len(ops) == 0 {
		return
	}
	via := ""
	if _, direct := directOp(c.pass, call); !direct {
		via = " (via " + analysis.CalleeFunc(c.pass.Info, call).Name() + ")"
	}
	for _, r := range ops {
		switch {
		case r == opAppend && st.stage == opPublish:
			// The previous mutation's pages are published but its root
			// swap never happened.
			c.report(call.Pos(),
				"commitorder: %s%s after %s (line %d) with no intervening %s; the commit protocol is wal.Append -> pool.Publish -> roots.Store",
				opName[opAppend], via, opName[opPublish],
				c.pass.Fset.Position(st.pos).Line, opName[opRoots])
		case r == opRoots && st.stage == opAppend:
			// The logged mutation's LSN becomes reachable before its
			// pages are installed.
			c.report(call.Pos(),
				"commitorder: %s%s before %s for the mutation logged at line %d; the commit protocol is wal.Append -> pool.Publish -> roots.Store",
				opName[opRoots], via, opName[opPublish],
				c.pass.Fset.Position(st.pos).Line)
		}
		st.stage, st.pos = r, call.Pos()
	}
}

// report emits a diagnostic once per (position, message).
func (c *checker) report(pos token.Pos, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	key := fmt.Sprint(pos, msg)
	if c.reported[key] {
		return
	}
	c.reported[key] = true
	c.pass.Report(pos, msg)
}
