package hetsched_test

import (
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestFacadeIsItsCallers keeps hetsched.go from regrowing: every
// exported name in it must be referenced as hetsched.<Name> from a
// command, an example, cli_test.go or a root Example test, or be a
// type alias that the signature of such a referenced function names.
// There is no allow-list; a name nobody calls belongs in its internal
// package.
func TestFacadeIsItsCallers(t *testing.T) {
	fset := token.NewFileSet()
	facade, err := parser.ParseFile(fset, "hetsched.go", nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	exported := map[string]bool{}
	signature := map[string][]string{} // function name → identifiers in its signature
	for _, d := range facade.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv != nil || !d.Name.IsExported() {
				continue
			}
			exported[d.Name.Name] = true
			ast.Inspect(d.Type, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					signature[d.Name.Name] = append(signature[d.Name.Name], id.Name)
				}
				return true
			})
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						exported[s.Name.Name] = true
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						if n.IsExported() {
							exported[n.Name] = true
						}
					}
				}
			}
		}
	}

	callers, err := filepath.Glob("example*_test.go")
	if err != nil {
		t.Fatal(err)
	}
	callers = append(callers, "cli_test.go")
	for _, dir := range []string{"cmd", "examples"} {
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") {
				callers = append(callers, path)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	referenced := map[string]bool{}
	for _, path := range callers {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		local := ""
		for _, imp := range f.Imports {
			if imp.Path.Value == `"hetsched"` {
				local = "hetsched"
				if imp.Name != nil {
					local = imp.Name.Name
				}
			}
		}
		if local == "" {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == local {
					referenced[sel.Sel.Name] = true
				}
			}
			return true
		})
	}

	kept := map[string]bool{}
	for name := range exported {
		if referenced[name] {
			kept[name] = true
			for _, id := range signature[name] {
				kept[id] = true
			}
		}
	}
	var orphans []string
	for name := range exported {
		if !kept[name] {
			orphans = append(orphans, name)
		}
	}
	sort.Strings(orphans)
	if len(orphans) > 0 {
		t.Errorf("hetsched.go exports %d names, %d of which no command, example or Example test references:\n  %s",
			len(exported), len(orphans), strings.Join(orphans, "\n  "))
	}
}

// TestDaemonDependencies fixes the module packages each serving binary
// links, following non-test imports, so that a daemon does not start
// linking the reproduction again (the experiment engine, the
// simulator, the exact solver) by reaching a name through the root
// facade: the facade would show up here as ".", with every package it
// imports. A change to this list is a change to what a daemon ships.
func TestDaemonDependencies(t *testing.T) {
	serving := []string{
		"internal/assignment", "internal/calib", "internal/comm", "internal/directory",
		"internal/exec", "internal/model", "internal/netmodel", "internal/obs",
		"internal/sched", "internal/serve", "internal/stats", "internal/timing", "internal/wire",
	}
	want := map[string][]string{
		"cmd/hcload":   serving,
		"cmd/hetpland": serving,
		"cmd/hcdird": {
			"internal/calib", "internal/directory", "internal/faults", "internal/model",
			"internal/netmodel", "internal/obs", "internal/timing", "internal/wire",
		},
	}
	for cmd, pkgs := range want {
		if got := moduleDeps(t, cmd); strings.Join(got, " ") != strings.Join(pkgs, " ") {
			t.Errorf("%s links\n  %s\nwant\n  %s", cmd, strings.Join(got, "\n  "), strings.Join(pkgs, "\n  "))
		}
	}
}

// moduleDeps returns the directories of the module packages that the
// package in dir imports, directly or not, sorted; the root is ".".
func moduleDeps(t *testing.T, dir string) []string {
	seen := map[string]bool{}
	var visit func(dir string)
	visit = func(dir string) {
		pkg, err := build.ImportDir(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range pkg.Imports {
			rel, ok := strings.CutPrefix(imp, "hetsched/")
			if imp == "hetsched" {
				rel, ok = ".", true
			}
			if ok && !seen[rel] {
				seen[rel] = true
				visit(rel)
			}
		}
	}
	visit(dir)
	var out []string
	for rel := range seen {
		out = append(out, rel)
	}
	sort.Strings(out)
	return out
}
