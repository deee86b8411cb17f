package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// HotpathAnalyzer checks //inkfuse:hotpath functions for heap allocations and
// for calls that leave the annotated hot-path set.
//
// Flagged, by category:
//   - alloc: &T{} literals, slice/map composite literals, make/new, append
//     (may grow), string concatenation and string<->[]byte conversions,
//     function literals (closure capture)
//   - map: map reads/writes/iteration/delete (runtime map ops hash + may
//     grow; hot loops use rt's flat tables instead)
//   - box: converting a concrete value to an interface (boxing allocates)
//   - call: calls to module functions not annotated //inkfuse:hotpath, to
//     stdlib packages outside a small allowlist, dynamic interface calls,
//     indirect calls through function values, and goroutine spawns
//
// Arguments of panic(...) are exempt: a panicking hot loop is already off the
// fast path. Findings are waived line-by-line with
// //inklint:allow <category> — <reason>.
var HotpathAnalyzer = &Analyzer{
	Name: "hotpath",
	Doc:  "reports heap allocations and escapes from //inkfuse:hotpath functions",
	Run:  runHotpath,
}

// hotStdlib are the stdlib packages hot code may call freely: alloc-free by
// construction (or intrinsic) and latency-bounded. bytes and encoding/binary
// qualify because the packed-row kernels are built on bytes.Equal and
// binary.LittleEndian loads/stores, all of which compile to branch-free
// intrinsics. sync and time additionally carry the flight recorder's hot-path
// contract: flight.Record (annotated //inkfuse:hotpath) reads the clock and
// stores one event under a sync.Mutex held for a few nanoseconds, so recorder
// call sites inside hot loops (the hybrid router's first-JIT event) pass
// without waivers.
var hotStdlib = map[string]bool{
	"bytes":           true,
	"encoding/binary": true,
	"math":            true,
	"math/bits":       true,
	"sync":            true,
	"sync/atomic":     true,
	"time":            true,
	"unsafe":          true,
}

func runHotpath(pass *Pass) {
	for _, pkg := range pass.Prog.Packages {
		if !pkg.Target {
			continue
		}
		for _, fd := range pass.Prog.HotDecls(pkg) {
			if fd.Body == nil {
				continue
			}
			hc := &hotChecker{pass: pass, pkg: pkg, decl: fd}
			hc.walk(fd.Body)
		}
	}
}

type hotChecker struct {
	pass *Pass
	pkg  *Package
	decl *ast.FuncDecl
	// addrTaken marks composite literals already reported via &T{}.
	addrTaken map[*ast.CompositeLit]bool
}

func (hc *hotChecker) walk(body ast.Node) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			hc.report(n.Pos(), "alloc", "function literal allocates a closure")
			return false // creation is the finding; the body runs via dynamic dispatch
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if cl, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					if hc.addrTaken == nil {
						hc.addrTaken = map[*ast.CompositeLit]bool{}
					}
					hc.addrTaken[cl] = true
					hc.report(n.Pos(), "alloc", "&%s{} literal escapes to the heap", typeName(hc.typeOf(cl)))
				}
			}
		case *ast.CompositeLit:
			if hc.addrTaken[n] {
				return true
			}
			switch hc.typeOf(n).Underlying().(type) {
			case *types.Slice:
				hc.report(n.Pos(), "alloc", "slice literal allocates")
			case *types.Map:
				hc.report(n.Pos(), "alloc", "map literal allocates")
			}
		case *ast.CallExpr:
			return hc.call(n)
		case *ast.IndexExpr:
			if _, ok := hc.typeOf(n.X).Underlying().(*types.Map); ok {
				hc.report(n.Pos(), "map", "runtime map access in hot path")
			}
		case *ast.RangeStmt:
			if _, ok := hc.typeOf(n.X).Underlying().(*types.Map); ok {
				hc.report(n.Pos(), "map", "runtime map iteration in hot path")
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD {
				if b, ok := hc.typeOf(n).Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
					hc.report(n.Pos(), "alloc", "string concatenation allocates")
				}
			}
		case *ast.GoStmt:
			hc.report(n.Pos(), "call", "goroutine spawn in hot path")
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i, rhs := range n.Rhs {
					hc.boxCheck(rhs, hc.typeOf(n.Lhs[i]))
				}
			}
		case *ast.ValueSpec:
			if n.Type != nil {
				dst := hc.typeOf(n.Type)
				for _, v := range n.Values {
					hc.boxCheck(v, dst)
				}
			}
		case *ast.ReturnStmt:
			sig, ok := hc.typeOf(hc.decl.Name).(*types.Signature)
			if ok && sig.Results().Len() == len(n.Results) {
				for i, r := range n.Results {
					hc.boxCheck(r, sig.Results().At(i).Type())
				}
			}
		}
		return true
	})
}

// call classifies a call expression; it returns false to skip the subtree
// (panic arguments are cold by definition).
func (hc *hotChecker) call(call *ast.CallExpr) bool {
	fun := ast.Unparen(call.Fun)
	// Unwrap generic instantiation: f[T](...)
	switch ix := fun.(type) {
	case *ast.IndexExpr:
		if _, ok := hc.typeOf(ix.X).(*types.Signature); ok {
			fun = ast.Unparen(ix.X)
		}
	case *ast.IndexListExpr:
		fun = ast.Unparen(ix.X)
	}

	// Type conversions: only string<->[]byte/[]rune copy.
	if tv, ok := hc.pkg.Info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 && conversionAllocates(hc.typeOf(call.Args[0]), tv.Type) {
			hc.report(call.Pos(), "alloc", "string conversion allocates")
		}
		return true
	}

	if id, ok := fun.(*ast.Ident); ok {
		if b, ok := hc.pkg.Info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make", "new":
				hc.report(call.Pos(), "alloc", "%s allocates", b.Name())
			case "append":
				hc.report(call.Pos(), "alloc", "append may grow its backing array")
			case "delete":
				hc.report(call.Pos(), "map", "runtime map delete in hot path")
			case "panic":
				return false // panicking is already off the fast path
			}
			return true
		}
	}

	hc.boxCheckArgs(call)

	obj := calleeObject(hc.pkg.Info, fun)
	fn, ok := obj.(*types.Func)
	if !ok {
		hc.report(call.Pos(), "call", "indirect call through function value")
		return true
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil && types.IsInterface(sig.Recv().Type()) {
		hc.report(call.Pos(), "call", "dynamic interface call to %s", fn.Name())
		return true
	}
	fpkg := fn.Pkg()
	if fpkg == nil || fpkg.Path() == "unsafe" {
		return true
	}
	path := fpkg.Path()
	if path == hc.pass.Prog.Module || strings.HasPrefix(path, hc.pass.Prog.Module+"/") {
		if !hc.pass.Prog.IsHot(origin(fn)) {
			hc.report(call.Pos(), "call", "calls %s.%s, which is not //inkfuse:hotpath", pathBase(path), fn.Name())
		}
		return true
	}
	if !hotStdlib[path] {
		hc.report(call.Pos(), "call", "calls %s.%s outside the hot-path stdlib allowlist", path, fn.Name())
	}
	return true
}

// boxCheckArgs checks each argument against its parameter type, including the
// variadic tail.
func (hc *hotChecker) boxCheckArgs(call *ast.CallExpr) {
	sig, ok := hc.typeOf(call.Fun).(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var dst types.Type
		switch {
		case i < params.Len()-1 || (!sig.Variadic() && i < params.Len()):
			dst = params.At(i).Type()
		case sig.Variadic() && call.Ellipsis == token.NoPos:
			if s, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
				dst = s.Elem()
			}
		case params.Len() > 0:
			dst = params.At(params.Len() - 1).Type()
		}
		if dst != nil {
			hc.boxCheck(arg, dst)
		}
	}
}

// boxCheck reports when assigning src to a dst interface boxes a concrete
// value (which allocates unless the value is pointer-shaped).
func (hc *hotChecker) boxCheck(src ast.Expr, dst types.Type) {
	if dst == nil || !types.IsInterface(dst.Underlying()) {
		return
	}
	if _, isTP := dst.(*types.TypeParam); isTP {
		return
	}
	st := hc.typeOf(src)
	if st == nil || types.IsInterface(st.Underlying()) {
		return
	}
	if b, ok := st.(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return
	}
	switch st.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return // pointer-shaped: fits in the interface word
	}
	hc.report(src.Pos(), "box", "boxing %s into %s allocates", typeName(st), typeName(dst))
}

func (hc *hotChecker) typeOf(e ast.Expr) types.Type {
	if t := hc.pkg.Info.TypeOf(e); t != nil {
		return t
	}
	return types.Typ[types.Invalid]
}

func (hc *hotChecker) report(pos token.Pos, category, format string, args ...any) {
	hc.pass.Reportf(pos, category, format, args...)
}

// calleeObject resolves the object a call expression's fun refers to.
func calleeObject(info *types.Info, fun ast.Expr) types.Object {
	switch f := fun.(type) {
	case *ast.Ident:
		return info.Uses[f]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[f]; ok {
			return sel.Obj()
		}
		return info.Uses[f.Sel]
	}
	return nil
}

// origin maps an instantiated generic function back to its declaration.
func origin(fn *types.Func) types.Object { return fn.Origin() }

func conversionAllocates(src, dst types.Type) bool {
	return (isString(src) && isByteOrRuneSlice(dst)) || (isByteOrRuneSlice(src) && isString(dst))
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	e, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (e.Kind() == types.Byte || e.Kind() == types.Rune || e.Kind() == types.Uint8 || e.Kind() == types.Int32)
}

func typeName(t types.Type) string {
	if t == nil {
		return "?"
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return t.String()
}
