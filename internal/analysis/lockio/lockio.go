// Package lockio guards the engine's latch discipline: simulated disk
// I/O — page reads and writes on the storage layer, buffer-pool
// operations, and the injected IOLatency sleep — must not run while a
// sync.Mutex or sync.RWMutex acquired in the same function is held.
// Holding a latch across a (possibly millisecond-scale) I/O serializes
// every concurrent query behind one page miss, the exact bug class the
// buffer pool is designed to avoid.
//
// The same discipline covers the serving layer: a dsks.DB query or
// mutation entry point (Search*, Stream*, Insert, Remove) and every
// dsks.View query method run network expansion and page I/O internally,
// so holding any local latch — the server's result-cache mutex in
// particular — across such a call stalls every concurrent request
// behind one query.
//
// The MVCC read-view contract adds the inverse rule: view-scoped query
// paths (methods on dsks.View) are latch-free by design — a view reads
// an immutable pinned snapshot, so it never has a reason to acquire a
// mutex, and taking the DB latch inside one would re-serialize readers
// behind writers, defeating the whole copy-on-write design. Any
// Lock/RLock acquisition inside a View method is flagged.
//
// It also covers the durability layer: a write-ahead-log fsync
// (storage.LogFile.Sync, or the wal.Log calls that wait on one —
// WaitDurable, Checkpoint, Close — and DB.WaitDurable, which blocks on
// the group commit the same way) must never run under a latch. The
// mutation protocol appends under the DB write latch (a buffered write,
// allowed; DB.InsertAsync is that protocol's entry point) but releases
// it before blocking on group commit; holding the latch across the
// fsync would serialize every reader behind the disk.
//
// The landmark oracle (internal/alt) is page-resident, so its distance
// vector reads are I/O too: Oracle.NodeVec pins a page through the
// buffer pool (a possible miss plus the IOLatency sleep) and WriteTo
// streams every page into the snapshot, so neither may run under a
// locally-held latch — SaveTo serializes the oracle before taking the
// engine latch for exactly this reason.
//
// The shard router (internal/shard) inherits the whole discipline at
// one remove: Set.Insert and Set.Remove fan a mutation out to a shard
// database and wait for its WAL durability, Set.SaveTo snapshots every
// shard, and the MultiView query methods pull N leg streams from pinned
// views that each run network expansion and page I/O — so none of them
// may run under a locally-held latch either. The router's own
// insert latch is the worked example: it is held across the buffered
// InsertAsync + mapping publish, and released before WaitDurable.
//
// The analysis is intraprocedural and flow-aware along straight-line
// code: Lock/RLock adds the mutex to the held set, Unlock/RUnlock
// removes it, defer Unlock keeps it held to the end of the function,
// and branch bodies are analyzed with a copy of the held set (an unlock
// inside a branch does not release the mutex for the code after it).
package lockio

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"dsks/internal/analysis"
)

// Analyzer flags storage I/O performed under a locally-acquired mutex.
var Analyzer = &analysis.Analyzer{
	Name: "lockio",
	Doc: "Page I/O (storage PageFile read/write, BufferPool operations that " +
		"can touch the file or sleep for IOLatency, landmark-oracle page " +
		"reads, and dsks.DB/dsks.View query and mutation entry points) " +
		"must not happen while a sync.Mutex/RWMutex acquired in the " +
		"enclosing function is held; and view-scoped query paths " +
		"(dsks.View methods) must acquire no latch at all — they read an " +
		"immutable pinned MVCC snapshot.",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if viewScoped(pass, fd) {
				checkViewLatchFree(pass, fd)
			}
			walkStmts(pass, fd.Body.List, map[string]token.Pos{})
		}
	}
	return nil
}

// viewScoped reports whether fd is a method on dsks.View — a read-view
// query path, latch-free by contract.
func viewScoped(pass *analysis.Pass, fd *ast.FuncDecl) bool {
	fn, ok := pass.Info.Defs[fd.Name].(*types.Func)
	if !ok {
		return false
	}
	return analysis.ReceiverTypeName(fn) == "View" && analysis.InPackage(fn, "dsks")
}

// checkViewLatchFree flags every mutex acquisition inside a View method:
// a view reads an immutable pinned snapshot, so any Lock/RLock there —
// above all the DB latch — re-serializes readers behind writers.
func checkViewLatchFree(pass *analysis.Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if op, lockExpr, ok := mutexOp(pass, call); ok && (op == "Lock" || op == "RLock") {
			pass.Reportf(call.Pos(),
				"lockio: %s of %s inside view-scoped View.%s; view query paths are latch-free by contract — read the pinned MVCC snapshot instead of latching",
				op, types.ExprString(lockExpr), fd.Name.Name)
		}
		return true
	})
}

// walkStmts scans a statement sequence, tracking which mutexes are held.
// held maps the mutex expression (printed form) to the position of its
// Lock call.
func walkStmts(pass *analysis.Pass, stmts []ast.Stmt, held map[string]token.Pos) {
	for _, s := range stmts {
		switch s := s.(type) {
		case *ast.ExprStmt:
			if op, lockExpr, ok := mutexOp(pass, s.X); ok {
				key := types.ExprString(lockExpr)
				switch op {
				case "Lock", "RLock":
					held[key] = s.Pos()
				case "Unlock", "RUnlock":
					delete(held, key)
				}
				continue
			}
			checkExpr(pass, s.X, held)
		case *ast.DeferStmt:
			if op, _, ok := mutexOp(pass, s.Call); ok && (op == "Unlock" || op == "RUnlock") {
				continue // released only at return: stays held below
			}
			// The deferred call's arguments are evaluated here.
			for _, a := range s.Call.Args {
				checkExpr(pass, a, held)
			}
		case *ast.BlockStmt:
			walkStmts(pass, s.List, held)
		case *ast.IfStmt:
			if s.Init != nil {
				walkStmts(pass, []ast.Stmt{s.Init}, held)
			}
			checkExpr(pass, s.Cond, held)
			walkStmts(pass, s.Body.List, cloned(held))
			if s.Else != nil {
				walkStmts(pass, []ast.Stmt{s.Else}, cloned(held))
			}
		case *ast.ForStmt:
			if s.Init != nil {
				walkStmts(pass, []ast.Stmt{s.Init}, held)
			}
			if s.Cond != nil {
				checkExpr(pass, s.Cond, held)
			}
			walkStmts(pass, s.Body.List, cloned(held))
		case *ast.RangeStmt:
			checkExpr(pass, s.X, held)
			walkStmts(pass, s.Body.List, cloned(held))
		case *ast.SwitchStmt:
			if s.Init != nil {
				walkStmts(pass, []ast.Stmt{s.Init}, held)
			}
			if s.Tag != nil {
				checkExpr(pass, s.Tag, held)
			}
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					walkStmts(pass, cc.Body, cloned(held))
				}
			}
		case *ast.TypeSwitchStmt:
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					walkStmts(pass, cc.Body, cloned(held))
				}
			}
		case *ast.GoStmt:
			// The goroutine body runs outside this lock region; only the
			// call's arguments are evaluated here.
			for _, a := range s.Call.Args {
				checkExpr(pass, a, held)
			}
		default:
			checkStmtExprs(pass, s, held)
		}
	}
}

// checkStmtExprs inspects any other statement form for blocking calls.
func checkStmtExprs(pass *analysis.Pass, s ast.Stmt, held map[string]token.Pos) {
	ast.Inspect(s, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			reportIfBlocking(pass, n, held)
		}
		return true
	})
}

// checkExpr inspects one expression for blocking calls.
func checkExpr(pass *analysis.Pass, e ast.Expr, held map[string]token.Pos) {
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			reportIfBlocking(pass, n, held)
		}
		return true
	})
}

func reportIfBlocking(pass *analysis.Pass, call *ast.CallExpr, held map[string]token.Pos) {
	if len(held) == 0 {
		return
	}
	desc, ok := blockingIO(pass, call)
	if !ok {
		return
	}
	for mu := range held {
		pass.Reportf(call.Pos(),
			"lockio: %s while %s is held; page I/O and the IOLatency sleep must run outside the latch", desc, mu)
		return // one report per call is enough
	}
}

// blockingIO reports whether call can perform page I/O or block on the
// injected IOLatency.
func blockingIO(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	fn := analysis.CalleeFunc(pass.Info, call)
	if fn == nil {
		return "", false
	}
	if desc, ok := dbEntryPoint(fn); ok {
		return desc, true
	}
	if analysis.InPackage(fn, "dsks") && analysis.ReceiverTypeName(fn) == "DB" &&
		fn.Name() == "WaitDurable" {
		// The blocking half of the InsertAsync/WaitDurable split: waits on
		// the WAL group commit. (InsertAsync itself is the buffered half,
		// legal under a latch — that is the insert protocol.)
		return "database WaitDurable (waits for fsync)", true
	}
	if analysis.InPackage(fn, "internal/shard") {
		switch analysis.ReceiverTypeName(fn) {
		case "Set":
			switch fn.Name() {
			case "Insert", "Remove", "SaveTo":
				return "shard-set " + fn.Name() + " fan-out", true
			}
		case "MultiView":
			if strings.HasPrefix(fn.Name(), "Search") || fn.Name() == "NetworkDistance" {
				return "scatter-gather " + fn.Name() + " query", true
			}
		}
		return "", false
	}
	if analysis.InPackage(fn, "internal/alt") && analysis.ReceiverTypeName(fn) == "Oracle" {
		// The landmark oracle is page-resident: NodeVec pins a page through
		// the buffer pool (a possible miss + IOLatency sleep) and WriteTo
		// streams every page; neither may run under a latch — the snapshot
		// writer serializes the oracle before taking the engine latch for
		// exactly this reason.
		switch fn.Name() {
		case "NodeVec", "WriteTo":
			return "oracle " + fn.Name() + " page read", true
		}
		return "", false
	}
	if analysis.InPackage(fn, "internal/wal") && analysis.ReceiverTypeName(fn) == "Log" {
		// Log.Append is a buffered write and is legal under the DB latch
		// (that is the append-before-apply protocol); anything that waits
		// for an fsync is not.
		switch fn.Name() {
		case "WaitDurable", "Checkpoint", "Close":
			return "wal " + fn.Name() + " (waits for fsync)", true
		}
		return "", false
	}
	if !analysis.InPackage(fn, "internal/storage") {
		return "", false
	}
	recv := analysis.ReceiverTypeName(fn)
	switch {
	case isPageStoreIO(fn):
		return "page " + fn.Name() + " on the storage file", true
	case recv == "BufferPool":
		switch fn.Name() {
		case "Get", "GetCtx", "Allocate", "Flush", "DropAll", "SetCapacity":
			return "buffer-pool " + fn.Name(), true
		}
	case recv == "LogFile" && fn.Name() == "Sync":
		return "log fsync", true
	case recv == "" && fn.Name() == "sleepCtx":
		return "IOLatency sleep", true
	}
	return "", false
}

// dbEntryPoint recognizes the dsks.DB query and mutation entry points
// plus the dsks.View query methods: every Search*/Stream* method, Insert
// and Remove on DB, and every query method on View runs network
// expansion, page I/O and possibly the IOLatency sleep internally, so it
// is as blocking as a raw page read. The serving layer's locking
// discipline (never hold the result-cache latch across a query) hangs on
// this classification. DB.View itself is exempt: opening a view is an
// atomic root-set load plus an epoch pin and never blocks.
func dbEntryPoint(fn *types.Func) (string, bool) {
	if !analysis.InPackage(fn, "dsks") {
		return "", false
	}
	name := fn.Name()
	switch analysis.ReceiverTypeName(fn) {
	case "DB":
		switch {
		case strings.HasPrefix(name, "Search"), strings.HasPrefix(name, "Stream"),
			name == "Insert", name == "Remove", name == "ApplyShipped":
			// ApplyShipped is the replication apply path: it takes the
			// engine latch itself and re-runs the replay-path index
			// mutation, so a replica loop must never call it under one.
			return "database " + name + " call", true
		}
	case "View":
		switch {
		case strings.HasPrefix(name, "Search"), strings.HasPrefix(name, "Stream"),
			name == "NetworkDistance":
			return "view " + name + " query", true
		}
	}
	return "", false
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

// mutexOp recognizes a call x.Lock / x.RLock / x.Unlock / x.RUnlock on a
// sync.Mutex or sync.RWMutex and returns the operation and x.
func mutexOp(pass *analysis.Pass, e ast.Expr) (string, ast.Expr, bool) {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return "", nil, false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", nil, false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return "", nil, false
	}
	fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", nil, false
	}
	recv := analysis.ReceiverTypeName(fn)
	if recv != "Mutex" && recv != "RWMutex" {
		return "", nil, false
	}
	return sel.Sel.Name, sel.X, true
}

func cloned(held map[string]token.Pos) map[string]token.Pos {
	out := make(map[string]token.Pos, len(held))
	for k, v := range held {
		out[k] = v
	}
	return out
}
