package analysis

import (
	"go/ast"
	"go/types"
)

// errdiscard forbids silently dropping errors in library code: both the
// explicit `_ = f()` form and the bare call statement `f()` where f
// returns an error. The chaos harness (PR 2) exists because this
// codebase treats connection failures as first-class inputs; an error
// dropped on a close or write path is a fault-injection blind spot.
//
// Scope: the module root package, everything under internal/, and the
// long-running daemon commands (cmd/hetpland, cmd/hcload, cmd/hcdird)
// — a service that drops an error keeps running wrong, unlike the
// one-shot CLIs, which print to stdout and exit and are excluded along
// with tests (never loaded) and examples/.
//
// Not flagged, by design:
//   - defer f.Close() and go f() statements: deferred and asynchronous
//     cleanup has no caller to return to, and the repo's convention is
//     that close-on-defer is best-effort
//   - fmt print/Fprint helpers and writes to in-memory or sticky-error
//     sinks (strings.Builder, bytes.Buffer, bufio.Writer): the repo's
//     renderers build reports through io.Writer, where per-write errors
//     are either impossible (builders) or deferred to a checked Flush
//   - hash.Hash writes, which package hash documents never fail
//
// Deliberate discards elsewhere carry //hetvet:ignore errdiscard with
// the reason the error is unactionable.
type errdiscardChecker struct{}

func (errdiscardChecker) Name() string { return "errdiscard" }
func (errdiscardChecker) Desc() string {
	return "no _ = or bare-call discarding of returned errors in library code"
}

func (e errdiscardChecker) Run(pkg *Package) []Diagnostic {
	if !pathWithin(pkg, ".", "internal") && !scoped(pkg, "cmd/hetpland", "cmd/hcload", "cmd/hcdird") {
		return nil
	}
	var out []Diagnostic
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.DeferStmt, *ast.GoStmt:
				return false
			case *ast.ExprStmt:
				call, ok := x.X.(*ast.CallExpr)
				if !ok {
					return true
				}
				if pos := errResultIndex(pkg, call); pos >= 0 && !exemptCall(pkg, call) {
					out = append(out, diag(pkg, call.Pos(), "errdiscard",
						"result error of %s is silently discarded; handle it, return it, or annotate why it is unactionable", callName(call)))
				}
				return true
			case *ast.AssignStmt:
				out = append(out, e.assign(pkg, x)...)
				return true
			}
			return true
		})
	}
	return out
}

// assign flags blank-identifier assignments whose corresponding value
// is an error.
func (errdiscardChecker) assign(pkg *Package, as *ast.AssignStmt) []Diagnostic {
	var out []Diagnostic
	flag := func(lhs ast.Expr, t types.Type, src string) {
		id, ok := lhs.(*ast.Ident)
		if !ok || id.Name != "_" || t == nil || !isErrorType(t) {
			return
		}
		out = append(out, diag(pkg, lhs.Pos(), "errdiscard",
			"error from %s discarded with _; handle it, return it, or annotate why it is unactionable", src))
	}
	if len(as.Rhs) == 1 && len(as.Lhs) > 1 {
		// x, _ := f() — multi-value call; match result positions.
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok {
			return nil
		}
		tuple, ok := pkg.Info.Types[call].Type.(*types.Tuple)
		if !ok || tuple.Len() != len(as.Lhs) {
			return nil
		}
		for i, lhs := range as.Lhs {
			flag(lhs, tuple.At(i).Type(), callName(call))
		}
		return out
	}
	if len(as.Rhs) == len(as.Lhs) {
		for i, lhs := range as.Lhs {
			src := exprString(as.Rhs[i])
			if call, ok := as.Rhs[i].(*ast.CallExpr); ok {
				src = callName(call)
			}
			if t := pkg.Info.Types[as.Rhs[i]].Type; t != nil {
				flag(lhs, t, src)
			}
		}
	}
	return out
}

// errResultIndex returns the index of the first error in the call's
// results, or -1 when the call returns no error (or is a conversion).
func errResultIndex(pkg *Package, call *ast.CallExpr) int {
	tv, ok := pkg.Info.Types[call.Fun]
	if !ok || tv.IsType() {
		return -1 // conversion, not a call
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return -1 // builtin (len, append, ...)
	}
	res := sig.Results()
	for i := 0; i < res.Len(); i++ {
		if isErrorType(res.At(i).Type()) {
			return i
		}
	}
	return -1
}

// isErrorType reports whether t is the predeclared error interface.
func isErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() == nil && obj.Name() == "error"
}

// exemptCall reports whether the call is on the never-fails allowlist:
// fmt printing to stdout, writes to in-memory buffers, and hash writes.
func exemptCall(pkg *Package, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if obj := pkgFuncObject(pkg, sel); obj != nil {
		if obj.Pkg() != nil && obj.Pkg().Path() == "fmt" {
			switch obj.Name() {
			case "Print", "Printf", "Println", "Fprint", "Fprintf", "Fprintln":
				return true
			}
		}
		return false
	}
	// Methods on in-memory builders never fail, nor does a hash.Hash's
	// Write (package hash documents it); bufio.Writer's write errors
	// are sticky and surface at Flush, which is not exempt.
	t := pkg.Info.Types[sel.X].Type
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return false
	}
	switch obj.Pkg().Path() + "." + obj.Name() {
	case "strings.Builder", "bytes.Buffer", "hash.Hash":
		return true
	case "bufio.Writer":
		return sel.Sel.Name != "Flush"
	}
	return false
}

// callName renders the called function for a message.
func callName(call *ast.CallExpr) string {
	return exprString(call.Fun)
}
