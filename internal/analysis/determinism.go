package analysis

import (
	"go/ast"
	"go/types"
)

// determinism enforces PR 1's reproducibility contract: schedulers, the
// simulator, the exact solver, the experiment engine, and the planning
// hot-path layers beneath them (assignment, incremental repair, timing
// evaluation — the warm-start and scratch code of DESIGN.md §11) must
// be deterministic functions of their inputs — same seed, same bytes. The
// paper's evaluation (t_max/t_lb tables, figure sweeps) is only
// comparable across runs and across the sequential/parallel engines if
// nothing reads the wall clock, draws from the process-global RNG, or
// lets Go's randomized map iteration order leak into output. The
// communicator and directory layers are additionally held to the
// injectable-clock convention: wall-clock time enters through a Clock
// field exactly once, so tests and chaos runs can fake it.
//
// Flagged in scoped packages:
//   - any reference to time.Now, time.Since, or time.Until (the
//     injectable clock's one default site carries an ignore directive)
//   - any use of math/rand's package-level functions, which draw from
//     the shared global source (rand.New / rand.NewSource / rand.NewZipf
//     with an explicit seeded source are the sanctioned alternatives)
//   - any range over a map, whose iteration order is deliberately
//     randomized by the runtime; iterate a sorted key slice instead, or
//     annotate loops whose effect is provably order-insensitive
type determinismChecker struct{}

// determinismScope lists the packages whose outputs must be
// bit-reproducible (module-relative suffixes).
var determinismScope = []string{
	"internal/assignment",
	"internal/incremental",
	"internal/timing",
	"internal/sched",
	"internal/sim",
	"internal/exact",
	"internal/experiments",
	"internal/comm",
	"internal/directory",
	"internal/wire",
	"internal/exec",
	"internal/calib",
}

func (determinismChecker) Name() string { return "determinism" }
func (determinismChecker) Desc() string {
	return "no wall-clock reads, global math/rand, or map-iteration-order dependence in reproducible packages"
}

func (determinismChecker) Run(pkg *Package) []Diagnostic {
	if !scoped(pkg, determinismScope...) {
		return nil
	}
	var out []Diagnostic
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.SelectorExpr:
				if obj := pkgFuncObject(pkg, x); obj != nil {
					switch {
					case isPkgFunc(obj, "time", "Now"), isPkgFunc(obj, "time", "Since"), isPkgFunc(obj, "time", "Until"):
						out = append(out, diag(pkg, x.Pos(), "determinism",
							"wall-clock read time.%s in a deterministic package; use the injectable clock", obj.Name()))
					case isFunc(obj) && obj.Pkg() != nil && obj.Pkg().Path() == "math/rand" && globalRandFunc(obj.Name()):
						out = append(out, diag(pkg, x.Pos(), "determinism",
							"rand.%s draws from the process-global source; use a seeded rand.New(rand.NewSource(seed))", obj.Name()))
					}
				}
			case *ast.RangeStmt:
				if t := pkg.Info.Types[x.X].Type; t != nil {
					if _, isMap := t.Underlying().(*types.Map); isMap {
						out = append(out, diag(pkg, x.Pos(), "determinism",
							"range over map has randomized iteration order; iterate sorted keys (or annotate if provably order-insensitive)"))
					}
				}
			}
			return true
		})
	}
	return out
}

// pkgFuncObject resolves a selector to a package-level function or
// variable object (nil for field/method selections).
func pkgFuncObject(pkg *Package, sel *ast.SelectorExpr) types.Object {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return nil
	}
	if _, isPkgName := pkg.Info.Uses[id].(*types.PkgName); !isPkgName {
		return nil
	}
	return pkg.Info.Uses[sel.Sel]
}

// isFunc reports whether obj is a function.
func isFunc(obj types.Object) bool {
	_, ok := obj.(*types.Func)
	return ok
}

// isPkgFunc reports whether obj is the named object of the named
// standard-library package.
func isPkgFunc(obj types.Object, pkgPath, name string) bool {
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath && obj.Name() == name
}

// globalRandFunc reports whether name is a math/rand package-level
// function that uses the shared global source. Constructors that take
// an explicit source — the sanctioned path — are excluded.
func globalRandFunc(name string) bool {
	switch name {
	case "New", "NewSource", "NewZipf":
		return false
	}
	return true
}
