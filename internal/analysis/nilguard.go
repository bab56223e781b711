package analysis

import (
	"go/ast"
	"go/token"
)

// nilguard enforces the internal/obs contract established in PR 3:
// disabled telemetry must cost one pointer check, which is only true if
// every exported pointer-receiver method on an instrument or tracer
// type begins with a nil-receiver early return. A missing guard turns
// "metrics off" into a nil-pointer panic at the first hot-path hook.
//
// Instrument and tracer types are discovered, not hard-coded: every
// exported named type in internal/obs that has at least one exported
// pointer-receiver method is held to the contract. That is exactly
// {Counter, Gauge, Histogram, Registry, ReqTrace, ReqSpan, TailSampler,
// FlightRecorder} today, and any instrument added later is covered
// automatically.
type nilguardChecker struct{}

// nilguardScope lists the packages under the fail-closed contract:
// internal/obs (disabled telemetry must cost one pointer check),
// internal/serve (a nil daemon, server, or client must refuse service
// rather than panic — the overload-safety story includes the
// not-even-constructed case), and internal/calib (disabled
// calibration must be a pointer check returning its input).
var nilguardScope = []string{
	"internal/obs",
	"internal/serve",
	"internal/calib",
}

func (nilguardChecker) Name() string { return "nilguard" }
func (nilguardChecker) Desc() string {
	return "exported pointer-receiver methods in internal/obs and internal/serve must begin with a nil-receiver early return"
}

func (nilguardChecker) Run(pkg *Package) []Diagnostic {
	if !scoped(pkg, nilguardScope...) {
		return nil
	}
	var out []Diagnostic
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || len(fd.Recv.List) != 1 || !fd.Name.IsExported() {
				continue
			}
			recvName, typeName, isPtr := receiverInfo(fd)
			if !isPtr || typeName == "" || !ast.IsExported(typeName) {
				continue
			}
			if fd.Body == nil {
				continue
			}
			if recvName == "" || recvName == "_" {
				// A method that never names its receiver cannot
				// dereference it either, but the contract is about the
				// pattern being locally auditable — require the guard.
				out = append(out, diag(pkg, fd.Pos(), "nilguard",
					"method (*%s).%s must name its receiver and begin with a nil-receiver early return",
					typeName, fd.Name.Name))
				continue
			}
			if !beginsWithNilGuard(fd.Body, recvName) {
				out = append(out, diag(pkg, fd.Pos(), "nilguard",
					"exported method (*%s).%s must begin with `if %s == nil { return ... }` so disabled telemetry stays a no-op",
					typeName, fd.Name.Name, recvName))
			}
		}
	}
	return out
}

// receiverInfo extracts the receiver name, base type name, and whether
// the receiver is a pointer.
func receiverInfo(fd *ast.FuncDecl) (recvName, typeName string, isPtr bool) {
	field := fd.Recv.List[0]
	if len(field.Names) == 1 {
		recvName = field.Names[0].Name
	}
	t := field.Type
	if star, ok := t.(*ast.StarExpr); ok {
		isPtr = true
		t = star.X
	}
	switch x := t.(type) {
	case *ast.Ident:
		typeName = x.Name
	case *ast.IndexExpr: // generic receiver T[P]
		if id, ok := x.X.(*ast.Ident); ok {
			typeName = id.Name
		}
	}
	return recvName, typeName, isPtr
}

// beginsWithNilGuard reports whether the body's first statement is
// `if recv == nil { ...; return }` (any guarded body whose final
// statement is a return counts, so guards that return zero values or an
// empty trace both qualify).
func beginsWithNilGuard(body *ast.BlockStmt, recv string) bool {
	if len(body.List) == 0 {
		return false
	}
	ifStmt, ok := body.List[0].(*ast.IfStmt)
	if !ok || ifStmt.Init != nil {
		return false
	}
	bin, ok := ifStmt.Cond.(*ast.BinaryExpr)
	if !ok || bin.Op != token.EQL {
		return false
	}
	if !isIdentNilPair(bin.X, bin.Y, recv) && !isIdentNilPair(bin.Y, bin.X, recv) {
		return false
	}
	if len(ifStmt.Body.List) == 0 {
		return false
	}
	_, isReturn := ifStmt.Body.List[len(ifStmt.Body.List)-1].(*ast.ReturnStmt)
	return isReturn
}

// isIdentNilPair reports whether a is the receiver identifier and b is
// the predeclared nil.
func isIdentNilPair(a, b ast.Expr, recv string) bool {
	ai, ok := a.(*ast.Ident)
	if !ok || ai.Name != recv {
		return false
	}
	bi, ok := b.(*ast.Ident)
	return ok && bi.Name == "nil"
}
