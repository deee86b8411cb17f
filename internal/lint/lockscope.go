package lint

import (
	"bytes"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
)

// LockScopeAnalyzer checks, in packages marked //inklint:lockscope (the ones
// that lock — exec, sched, plancache, serve, obs, storage, flight,
// faultinject — and rt, whose hash tables take no lock today), that a
// sync.Mutex/RWMutex critical section never spans:
//
//   - a faultinject call (an injected delay or error while holding a lock
//     stalls every worker waiting for it)
//   - a channel operation (send/receive/select/range) — the classic
//     lock-ordering deadlock shape with the scheduler
//   - a goroutine spawn or an indirect call through a function value
//     (callbacks can re-enter the table and self-deadlock)
//
// The critical section is approximated lexically: from the Lock()/RLock()
// statement to the matching Unlock()/RUnlock() in the same statement list,
// or — for defer Unlock and unpaired locks — to the end of the enclosing
// list. Findings are waived with //inklint:allow lockscope — <reason>.
var LockScopeAnalyzer = &Analyzer{
	Name: "lockscope",
	Doc:  "mutex critical sections must not span fault points, channel ops, or callbacks",
	Run:  runLockScope,
}

func runLockScope(pass *Pass) {
	for _, pkg := range pass.Prog.Packages {
		if !pkg.Target || !pass.Prog.HasDirective(pkg, "lockscope") {
			continue
		}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				var list []ast.Stmt
				switch n := n.(type) {
				case *ast.BlockStmt:
					list = n.List
				case *ast.CaseClause:
					list = n.Body
				case *ast.CommClause:
					list = n.Body
				default:
					return true
				}
				scanLockRegions(pass, pkg, list)
				return true
			})
		}
	}
}

func scanLockRegions(pass *Pass, pkg *Package, list []ast.Stmt) {
	for i, stmt := range list {
		recv, isLock := lockCall(pkg, stmt)
		if !isLock {
			continue
		}
		// Find the matching unlock in this list; defer pins the region to the
		// end of the list (the lock is held for the rest of the function).
		end := len(list)
		for j := i + 1; j < len(list); j++ {
			if u, isUnlock := unlockCall(pkg, list[j]); isUnlock && u == recv {
				if _, isDefer := list[j].(*ast.DeferStmt); !isDefer {
					end = j
				}
				break
			}
		}
		for j := i + 1; j < end; j++ {
			// Skip the defer unlock statement itself.
			if u, isUnlock := unlockCall(pkg, list[j]); isUnlock && u == recv {
				continue
			}
			checkLockedStmt(pass, pkg, list[j], recv)
		}
	}
}

// checkLockedStmt flags forbidden operations inside a critical section.
// Function-literal bodies are skipped: defining a closure under a lock is
// fine, invoking one is flagged at the call.
func checkLockedStmt(pass *Pass, pkg *Package, stmt ast.Stmt, recv string) {
	ast.Inspect(stmt, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SendStmt:
			pass.Reportf(n.Pos(), "lockscope", "channel send while holding %s", recv)
		case *ast.SelectStmt:
			pass.Reportf(n.Pos(), "lockscope", "select while holding %s", recv)
			return false
		case *ast.GoStmt:
			pass.Reportf(n.Pos(), "lockscope", "goroutine spawn while holding %s", recv)
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				pass.Reportf(n.Pos(), "lockscope", "channel receive while holding %s", recv)
			}
		case *ast.RangeStmt:
			if _, ok := pkg.Info.TypeOf(n.X).Underlying().(*types.Chan); ok {
				pass.Reportf(n.Pos(), "lockscope", "range over channel while holding %s", recv)
			}
		case *ast.CallExpr:
			checkLockedCall(pass, pkg, n, recv)
		}
		return true
	})
}

func checkLockedCall(pass *Pass, pkg *Package, call *ast.CallExpr, recv string) {
	fun := ast.Unparen(call.Fun)
	switch ix := fun.(type) {
	case *ast.IndexExpr:
		if _, ok := pkg.Info.TypeOf(ix.X).(*types.Signature); ok {
			fun = ast.Unparen(ix.X)
		}
	case *ast.IndexListExpr:
		fun = ast.Unparen(ix.X)
	}
	if tv, ok := pkg.Info.Types[call.Fun]; ok && tv.IsType() {
		return // conversion
	}
	obj := calleeObject(pkg.Info, fun)
	switch obj := obj.(type) {
	case *types.Builtin, *types.Nil:
		return
	case *types.Func:
		if p := obj.Pkg(); p != nil && pathBase(p.Path()) == "faultinject" {
			pass.Reportf(call.Pos(), "lockscope",
				"faultinject.%s while holding %s: an injected fault would stall the shard", obj.Name(), recv)
		}
		return
	default:
		pass.Reportf(call.Pos(), "lockscope",
			"indirect call through a function value while holding %s", recv)
	}
}

// lockCall reports whether stmt is a sync mutex Lock/RLock call, returning
// the rendered receiver expression ("s.mu").
func lockCall(pkg *Package, stmt ast.Stmt) (string, bool) {
	es, ok := stmt.(*ast.ExprStmt)
	if !ok {
		return "", false
	}
	return mutexCall(pkg, es.X, "Lock", "RLock")
}

// unlockCall matches both `x.Unlock()` and `defer x.Unlock()`.
func unlockCall(pkg *Package, stmt ast.Stmt) (string, bool) {
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		return mutexCall(pkg, s.X, "Unlock", "RUnlock")
	case *ast.DeferStmt:
		return mutexCall(pkg, s.Call, "Unlock", "RUnlock")
	}
	return "", false
}

func mutexCall(pkg *Package, expr ast.Expr, names ...string) (string, bool) {
	call, ok := ast.Unparen(expr).(*ast.CallExpr)
	if !ok {
		return "", false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	fn, ok := calleeObject(pkg.Info, sel).(*types.Func)
	if !ok {
		return "", false
	}
	match := false
	for _, name := range names {
		if fn.Name() == name {
			match = true
		}
	}
	if !match || !isSyncMutex(fn) {
		return "", false
	}
	return exprString(sel.X), true
}

func isSyncMutex(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "sync" {
		return false
	}
	return named.Obj().Name() == "Mutex" || named.Obj().Name() == "RWMutex"
}

func exprString(e ast.Expr) string {
	var buf bytes.Buffer
	printer.Fprint(&buf, token.NewFileSet(), e)
	return buf.String()
}
