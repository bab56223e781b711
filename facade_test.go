package hetsched_test

import (
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io"
	"io/fs"
	"path"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"hetsched/internal/calib"
	"hetsched/internal/obs"
	"hetsched/internal/serve"
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

// TestConfigKnobsAreSet keeps the configuration of the served and
// executed path from regrowing knobs: every exported field of these
// config types must be set by non-test code outside the type's own
// package (a command, an example, bench/ or another internal package),
// or be listed in seams with the reason it stays. A field that nothing
// sets is a constant.
func TestConfigKnobsAreSet(t *testing.T) {
	configs := []string{
		"internal/calib.Config",
		"internal/comm.Config",
		"internal/directory.ResilientConfig",
		"internal/exec.Config",
		"internal/serve.Config",
		"internal/serve.ServerConfig",
	}
	seams := map[string]string{
		// Time seams, each injected by tests.
		"internal/comm.Config.Clock":               "the ladder tests age the cached table with it",
		"internal/directory.ResilientConfig.Clock": "the stale-cache tests age the held snapshot with it",
		"internal/directory.ResilientConfig.Sleep": "the backoff tests count the waits instead of sleeping",
		"internal/exec.Config.Sleep":               "TestExecBackoffJitterIsSeeded records the backoffs instead of sleeping",
		// Timing knobs the chaos tests drive.
		"internal/exec.Config.MinDeadline":               "the executor chaos tests shorten the attempt deadline",
		"internal/exec.Config.MaxRetries":                "the executor chaos tests bound retries",
		"internal/exec.Config.Backoff":                   "the executor chaos tests shorten the retry backoff",
		"internal/exec.Config.Seed":                      "the executor chaos tests seed the backoff jitter",
		"internal/directory.ResilientConfig.BackoffBase": "the directory chaos tests shorten the retry backoff",
		"internal/directory.ResilientConfig.BackoffMax":  "TestChaosResilientUnderConnFaults caps the retry backoff",
		"internal/directory.ResilientConfig.Seed":        "TestChaosResilientUnderConnFaults seeds each client's jitter",
		"internal/serve.Config.MaxRetryAfter":            "TestServeOverloadChaos caps the retry-after hint",
		"internal/serve.ServerConfig.WriteTimeout":       "TestServerDisconnectsSlowClient cuts a trickling reader off with it",
		"internal/serve.ServerConfig.WrapConn":           "the slow-client and small-buffer tests wrap the daemon's connections",
		// A replan seam: the executor's default is sched.ReplanResidual.
		"internal/exec.Config.Replan": "TestExecReplanOutOfOrderFails injects a replan whose sender starts go backwards",
	}

	// The exported fields of every config type, keyed "dir.Type.Field".
	fset := token.NewFileSet()
	fields := map[string]bool{}
	for _, cfg := range configs {
		dir, typ, _ := strings.Cut(cfg, ".")
		for _, f := range parseDir(t, fset, dir) {
			ast.Inspect(f, func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSpec)
				if !ok || ts.Name.Name != typ {
					return true
				}
				for _, fld := range ts.Type.(*ast.StructType).Fields.List {
					for _, name := range fld.Names {
						if name.IsExported() {
							fields[cfg+"."+name.Name] = true
						}
					}
				}
				return false
			})
		}
	}
	if len(fields) == 0 {
		t.Fatal("found no config fields")
	}

	// The facade's aliases: hetsched.CommConfig is comm.Config.
	facade, err := parser.ParseFile(fset, "hetsched.go", nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	aliases := map[string]string{}
	facadeImports := importDirs(facade)
	for _, d := range facade.Decls {
		if gd, ok := d.(*ast.GenDecl); ok {
			for _, s := range gd.Specs {
				if ts, ok := s.(*ast.TypeSpec); ok && ts.Assign.IsValid() {
					if target := typeKey(ts.Type, facadeImports, nil); target != "" {
						aliases[".."+ts.Name.Name] = target // the facade's dir is "."
					}
				}
			}
		}
	}

	set := map[string]bool{}
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		own := filepath.ToSlash(filepath.Dir(path))
		imports := importDirs(f)
		key := func(e ast.Expr) string {
			k := typeKey(e, imports, aliases)
			if strings.HasPrefix(k, own+".") {
				return "" // a package setting its own defaults
			}
			return k
		}
		// Variables of a config type: declared with it, initialised
		// with one of its literals, or received as a parameter.
		vars := map[string]string{}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Field:
				if k := key(n.Type); k != "" {
					for _, name := range n.Names {
						vars[name.Name] = k
					}
				}
			case *ast.ValueSpec:
				for i, name := range n.Names {
					if k := key(n.Type); k != "" {
						vars[name.Name] = k
					} else if i < len(n.Values) {
						if k := litKey(n.Values[i], key); k != "" {
							vars[name.Name] = k
						}
					}
				}
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					if id, ok := lhs.(*ast.Ident); ok && i < len(n.Rhs) && len(n.Lhs) == len(n.Rhs) {
						if k := litKey(n.Rhs[i], key); k != "" {
							vars[id.Name] = k
						}
					}
				}
			}
			return true
		})
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				if k := key(n.Type); k != "" {
					for _, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							if id, ok := kv.Key.(*ast.Ident); ok {
								set[k+"."+id.Name] = true
							}
						}
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok {
						if x, ok := sel.X.(*ast.Ident); ok && vars[x.Name] != "" {
							set[vars[x.Name]+"."+sel.Sel.Name] = true
						}
					}
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var unset []string
	for f := range fields {
		if !set[f] && seams[f] == "" {
			unset = append(unset, f)
		}
	}
	for f := range seams {
		if !fields[f] {
			t.Errorf("seams lists %s, which is not a config field", f)
		} else if set[f] {
			t.Errorf("seams lists %s, which non-test code sets; drop it from the list", f)
		}
	}
	sort.Strings(unset)
	if len(unset) > 0 {
		t.Errorf("%d config fields are set by no non-test code outside their package and are not listed as seams; make each a constant:\n  %s",
			len(unset), strings.Join(unset, "\n  "))
	}
}

// TestNilReceiversFailClosed holds the nil-receiver contract: disabled
// telemetry is a nil instrument, tracer or recorder and costs one
// pointer check, and a daemon, server, client or calibrator that was
// never built refuses service rather than panicking. Every exported
// method of a nil *T below runs twice, with zero arguments and with
// ones (1, "1", true), io.Discard for an io.Writer, and must not panic:
// zeros alone stop early in ObserveExemplar(0, 0), whose trace-0 path
// reads nothing. The list is checked against every exported type with
// an exported pointer-receiver method in the three packages, so a new
// type cannot be left off it.
func TestNilReceiversFailClosed(t *testing.T) {
	nils := []any{
		(*obs.Counter)(nil),
		(*obs.Gauge)(nil),
		(*obs.Histogram)(nil),
		(*obs.Registry)(nil),
		(*obs.ReqTrace)(nil),
		(*obs.ReqSpan)(nil),
		(*obs.TailSampler)(nil),
		(*obs.FlightRecorder)(nil),
		(*serve.Daemon)(nil),
		(*serve.Server)(nil),
		(*serve.Client)(nil),
		(*calib.Calibrator)(nil),
	}
	writer := reflect.TypeFor[io.Writer]()
	listed := map[string]bool{}
	for _, v := range nils {
		ptr := reflect.ValueOf(v)
		name := path.Base(ptr.Type().Elem().PkgPath()) + "." + ptr.Type().Elem().Name()
		listed[name] = true
		for i := 0; i < ptr.NumMethod(); i++ {
			m, mname := ptr.Method(i), ptr.Type().Method(i).Name
			for _, one := range []bool{false, true} {
				args := make([]reflect.Value, m.Type().NumIn())
				for j := range args {
					in := m.Type().In(j)
					args[j] = reflect.New(in).Elem()
					switch {
					case in == writer:
						args[j].Set(reflect.ValueOf(io.Discard))
					case !one: // the zero pass
					case args[j].CanInt():
						args[j].SetInt(1)
					case args[j].CanUint():
						args[j].SetUint(1)
					case args[j].CanFloat():
						args[j].SetFloat(1)
					case in.Kind() == reflect.String:
						args[j].SetString("1")
					case in.Kind() == reflect.Bool:
						args[j].SetBool(true)
					}
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							t.Errorf("(*%s).%s panics on a nil receiver: %v", name, mname, r)
						}
					}()
					if m.Type().IsVariadic() {
						m.CallSlice(args)
					} else {
						m.Call(args)
					}
				}()
			}
		}
	}

	fset := token.NewFileSet()
	found := map[string]bool{}
	for _, dir := range []string{"internal/obs", "internal/serve", "internal/calib"} {
		for _, f := range parseDir(t, fset, dir) {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Recv == nil || !fd.Name.IsExported() {
					continue
				}
				star, ok := fd.Recv.List[0].Type.(*ast.StarExpr)
				if !ok {
					continue
				}
				if id, ok := star.X.(*ast.Ident); ok && id.IsExported() {
					found[path.Base(dir)+"."+id.Name] = true
				}
			}
		}
	}
	for name := range found {
		if !listed[name] {
			t.Errorf("%s has exported pointer methods but is not in this test's list", name)
		}
	}
	for name := range listed {
		if !found[name] {
			t.Errorf("the list names %s, which has no exported pointer method", name)
		}
	}
}

// parseDir parses the non-test Go files of one directory.
func parseDir(t *testing.T, fset *token.FileSet, dir string) []*ast.File {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	return files
}

// importDirs maps a file's import names to module directories: "comm"
// (or its rename) → "internal/comm", the root facade → ".".
func importDirs(f *ast.File) map[string]string {
	out := map[string]string{}
	for _, imp := range f.Imports {
		path := strings.Trim(imp.Path.Value, `"`)
		dir, ok := strings.CutPrefix(path, "hetsched/")
		if path == "hetsched" {
			dir, ok = ".", true
		}
		if !ok {
			continue
		}
		name := filepath.Base(path)
		if imp.Name != nil {
			name = imp.Name.Name
		}
		out[name] = dir
	}
	return out
}

// typeKey names the type an expression spells, "dir.Type", through the
// file's imports and the facade's aliases; "" when it is not a type
// from another module package. A pointer names its element.
func typeKey(e ast.Expr, imports, aliases map[string]string) string {
	if star, ok := e.(*ast.StarExpr); ok {
		e = star.X
	}
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	x, ok := sel.X.(*ast.Ident)
	if !ok || imports[x.Name] == "" {
		return ""
	}
	k := imports[x.Name] + "." + sel.Sel.Name
	if target, ok := aliases[k]; ok {
		return target
	}
	return k
}

// litKey is the type key of a composite literal or its address.
func litKey(e ast.Expr, key func(ast.Expr) string) string {
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
		e = u.X
	}
	if lit, ok := e.(*ast.CompositeLit); ok {
		return key(lit.Type)
	}
	return ""
}
