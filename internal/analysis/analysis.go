// Package analysis is hetvet: a project-specific static-analysis
// suite that machine-checks the serving stack's conventions that no
// runtime test can hold. It is built entirely on the standard library
// (go/parser, go/ast, go/types) — no x/tools dependency — and ships two
// checkers:
//
//	lockio      — no network I/O, time.Sleep, or channel operations
//	              while a sync mutex is held in the networked packages.
//	tracectx    — exported functions in internal/serve and
//	              internal/exec that spawn goroutines or cross the wire
//	              must accept a context.Context, so request traces
//	              survive end to end.
//
// Every checker honors the escape hatch
//
//	//hetvet:ignore <check-name>[,<check-name>] <reason>
//
// which suppresses the named checks (or "all") on the directive's line
// and, for a directive alone on its line, on the next statement or
// declaration line. The reason is mandatory: an ignore without one is
// itself a diagnostic, as is any malformed or near-miss directive
// (directive.go).
//
// DESIGN.md §9 documents each invariant, why it exists, what each
// checker has caught, and which runtime tests took over from the
// checkers that were retired.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"io"
	"path/filepath"
	"sort"
	"strings"
)

// Diagnostic is one finding: a position, the checker that produced it,
// and a human-readable message.
type Diagnostic struct {
	File    string
	Line    int
	Col     int
	Check   string
	Message string
}

// String renders the canonical "file:line: [check] message" form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", d.File, d.Line, d.Check, d.Message)
}

// Checker is one analysis pass. Run inspects a single loaded package
// and returns its findings; the driver applies ignore directives,
// relativizes paths, and sorts.
type Checker interface {
	// Name is the check name used in diagnostics and ignore directives.
	Name() string
	// Desc is a one-line description for -help style output.
	Desc() string
	// Run analyzes one package.
	Run(pkg *Package) []Diagnostic
}

// DefaultCheckers returns the full hetvet suite.
func DefaultCheckers() []Checker {
	return []Checker{
		lockioChecker{},
		tracectxChecker{},
	}
}

// checkNames returns the set of valid check names for directive
// validation ("all" is implicitly valid).
func checkNames(checkers []Checker) map[string]bool {
	names := map[string]bool{}
	for _, c := range checkers {
		names[c.Name()] = true
	}
	return names
}

// Run executes every checker over every package, applies ignore
// directives, relativizes file paths against rootDir (best effort), and
// returns the findings sorted by position. Malformed ignore directives
// are reported under the pseudo-check "directive" and cannot be
// suppressed.
func Run(pkgs []*Package, checkers []Checker, rootDir string) []Diagnostic {
	// Directive validity is judged against the full suite, not the
	// selected subset: running -checks=lockio must not turn every
	// waiver of an unselected check into an unknown-name finding.
	valid := checkNames(append(DefaultCheckers(), checkers...))
	var out []Diagnostic
	for _, pkg := range pkgs {
		ignores, bad := collectIgnores(pkg, valid)
		out = append(out, bad...)
		for _, c := range checkers {
			for _, d := range c.Run(pkg) {
				if ignores.suppressed(d) {
					continue
				}
				out = append(out, d)
			}
		}
	}
	for i := range out {
		if rel, err := filepath.Rel(rootDir, out[i].File); err == nil && !strings.HasPrefix(rel, "..") {
			out[i].File = filepath.ToSlash(rel)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Message < b.Message
	})
	return out
}

// WriteText renders one diagnostic per line in the canonical text form.
func WriteText(w io.Writer, diags []Diagnostic) error {
	for _, d := range diags {
		if _, err := fmt.Fprintln(w, d.String()); err != nil {
			return err
		}
	}
	return nil
}

// diag builds a Diagnostic at a token position.
func diag(pkg *Package, pos token.Pos, check, format string, args ...any) Diagnostic {
	p := pkg.Fset.Position(pos)
	return Diagnostic{File: p.Filename, Line: p.Line, Col: p.Column, Check: check, Message: fmt.Sprintf(format, args...)}
}

// scoped reports whether pkg's import path ends with one of the given
// module-relative suffixes (e.g. "internal/obs"). Matching on suffix
// segments keeps checker scopes stable across the real module and the
// testdata fixture trees, which share the module path.
func scoped(pkg *Package, suffixes ...string) bool {
	for _, s := range suffixes {
		if pkg.Path == s || strings.HasSuffix(pkg.Path, "/"+s) {
			return true
		}
	}
	return false
}

// walkNoFuncLit walks the AST rooted at n, calling fn for every node,
// but does not descend into function literals: their bodies execute on
// their own schedule, not at the lexical point being analyzed.
func walkNoFuncLit(n ast.Node, fn func(ast.Node) bool) {
	ast.Inspect(n, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		return fn(n)
	})
}
