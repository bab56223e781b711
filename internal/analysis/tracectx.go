package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// tracectx enforces the PR 8 correlation contract: request-scoped
// tracing only works end to end if every exported entry point in the
// serving and data-plane packages that spawns concurrent work or
// crosses the wire can carry an obs.TraceContext — which in Go means
// accepting a context.Context. An exported function that dials,
// listens, or launches goroutines without a ctx parameter is a place
// where a request trace silently dies.
//
// The check is deliberately shallow: it looks only at the function's
// own body (one lexical level, not descending into function literals
// except to see the `go` keyword itself) for
//
//   - a go statement, or
//   - a call to net.Dial*/net.Listen*, or
//   - a DialContext call on a net.Dialer (which wants a real ctx, not
//     context.Background()).
//
// Construction-time listeners and process-lifetime worker pools are
// legitimately requestless; they carry //hetvet:ignore tracectx with
// the reason.
type tracectxChecker struct{}

// tracectxScope lists the packages under the trace-propagation
// contract: the planning service and the data-plane executor — the two
// layers a request trace must cross to appear in one Perfetto view.
var tracectxScope = []string{
	"internal/serve",
	"internal/exec",
}

func (tracectxChecker) Name() string { return "tracectx" }
func (tracectxChecker) Desc() string {
	return "exported functions in internal/serve and internal/exec that spawn work or cross the wire must take a context.Context"
}

func (tracectxChecker) Run(pkg *Package) []Diagnostic {
	if !scoped(pkg, tracectxScope...) {
		return nil
	}
	var out []Diagnostic
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() || fd.Body == nil {
				continue
			}
			if hasContextParam(pkg, fd) {
				continue
			}
			if why := escapesWithoutCtx(pkg, fd.Body); why != "" {
				name := fd.Name.Name
				if tn := receiverType(fd); tn != "" {
					name = tn + "." + name
				}
				out = append(out, diag(pkg, fd.Pos(), "tracectx",
					"exported %s %s but has no context.Context parameter, so a request trace cannot cross it; accept a ctx or annotate why the work is requestless",
					name, why))
			}
		}
	}
	return out
}

// hasContextParam reports whether any parameter of fd (including the
// receiver list's siblings) is a context.Context.
func hasContextParam(pkg *Package, fd *ast.FuncDecl) bool {
	if fd.Type.Params == nil {
		return false
	}
	for _, field := range fd.Type.Params.List {
		t := pkg.Info.Types[field.Type].Type
		if t == nil {
			continue
		}
		named, ok := t.(*types.Named)
		if !ok {
			continue
		}
		obj := named.Obj()
		if obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context" {
			return true
		}
	}
	return false
}

// escapesWithoutCtx scans the body one lexical level deep for work
// that should carry a trace; it returns a short description of the
// first such site, or "" when the body is trace-neutral.
func escapesWithoutCtx(pkg *Package, body *ast.BlockStmt) string {
	why := ""
	walkNoFuncLit(body, func(n ast.Node) bool {
		if why != "" {
			return false
		}
		switch x := n.(type) {
		case *ast.GoStmt:
			why = "spawns goroutines"
			return false
		case *ast.CallExpr:
			if w := wireCall(pkg, x); w != "" {
				why = w
				return false
			}
		}
		return true
	})
	return why
}

// wireCall classifies a call as wire-crossing: package-level
// net.Dial*/net.Listen*, or DialContext on a net.Dialer.
func wireCall(pkg *Package, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	if obj := pkgFuncObject(pkg, sel); obj != nil {
		if obj.Pkg() != nil && obj.Pkg().Path() == "net" &&
			(strings.HasPrefix(obj.Name(), "Dial") || strings.HasPrefix(obj.Name(), "Listen")) {
			return "crosses the wire via net." + obj.Name()
		}
		return ""
	}
	if sel.Sel.Name != "DialContext" {
		return ""
	}
	t := pkg.Info.Types[sel.X].Type
	if t == nil {
		return ""
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Obj()
	if obj.Pkg() != nil && obj.Pkg().Path() == "net" && obj.Name() == "Dialer" {
		return "crosses the wire via net.Dialer.DialContext"
	}
	return ""
}

// receiverType returns the base type name of fd's receiver, or "" for a
// function or a receiver it cannot name.
func receiverType(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) != 1 {
		return ""
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	switch x := t.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.IndexExpr: // generic receiver T[P]
		if id, ok := x.X.(*ast.Ident); ok {
			return id.Name
		}
	}
	return ""
}
