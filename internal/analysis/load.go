package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package: the unit every checker
// operates on. Test files (_test.go) are excluded — the invariants
// hetvet enforces are about library code.
type Package struct {
	// Path is the import path, e.g. "hetsched/internal/sched".
	Path string
	// Dir is the absolute directory the package was loaded from.
	Dir string
	// Fset is the loader's shared file set (positions for all packages).
	Fset *token.FileSet
	// Files are the parsed non-test source files, sorted by file name.
	Files []*ast.File
	// Types and Info carry the go/types results for the package.
	Types *types.Package
	Info  *types.Info
}

// Loader loads and type-checks packages of one module using only the
// standard library: go/parser for syntax and go/types with a
// source-level importer for semantics. Module-internal imports are
// resolved against the module tree; everything else is delegated to the
// standard-library source importer.
type Loader struct {
	// RootDir is the absolute module root (the directory with go.mod).
	RootDir string
	// ModulePath is the module's import-path prefix, e.g. "hetsched".
	ModulePath string

	fset    *token.FileSet
	std     types.Importer
	pkgs    map[string]*Package // by import path
	loading map[string]bool     // import-cycle guard
}

// NewLoader creates a loader for the module rooted at rootDir.
func NewLoader(rootDir, modulePath string) *Loader {
	fset := token.NewFileSet()
	return &Loader{
		RootDir:    rootDir,
		ModulePath: modulePath,
		fset:       fset,
		std:        importer.ForCompiler(fset, "source", nil),
		pkgs:       map[string]*Package{},
		loading:    map[string]bool{},
	}
}

// ModuleRoot walks up from dir to the nearest directory containing
// go.mod and returns that directory and the module path declared in it.
func ModuleRoot(dir string) (root, modulePath string, err error) {
	dir, err = filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, rerr := os.ReadFile(filepath.Join(dir, "go.mod"))
		if rerr == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return dir, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("analysis: %s/go.mod has no module line", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("analysis: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// Load resolves the given patterns to package directories and loads
// each. Patterns are interpreted relative to the module root: "./..."
// (or "...") loads every package in the module; "./x/y" or "x/y" loads
// one directory; "./x/..." loads a subtree. Directories named
// "testdata", hidden directories, and directories without non-test Go
// files are skipped. Results are sorted by import path.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	dirSet := map[string]bool{}
	for _, pat := range patterns {
		pat = filepath.ToSlash(pat)
		pat = strings.TrimPrefix(pat, "./")
		if pat == "" {
			pat = "."
		}
		switch {
		case pat == "..." || pat == ".":
			// "." alone means the root package; "..." the whole tree.
			if pat == "." {
				dirSet[l.RootDir] = true
				continue
			}
			if err := l.walk(l.RootDir, dirSet); err != nil {
				return nil, err
			}
		case strings.HasSuffix(pat, "/..."):
			base := filepath.Join(l.RootDir, strings.TrimSuffix(pat, "/..."))
			if err := l.walk(base, dirSet); err != nil {
				return nil, err
			}
		default:
			dirSet[filepath.Join(l.RootDir, pat)] = true
		}
	}
	dirs := make([]string, 0, len(dirSet))
	for d := range dirSet {
		dirs = append(dirs, d)
	}
	sort.Strings(dirs)
	var out []*Package
	for _, dir := range dirs {
		names, err := goSourceFiles(dir)
		if err != nil {
			return nil, err
		}
		if len(names) == 0 {
			continue
		}
		pkg, err := l.loadDir(dir)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}

// walk collects every package directory under base.
func (l *Loader) walk(base string, dirSet map[string]bool) error {
	return filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != base && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		names, err := goSourceFiles(path)
		if err != nil {
			return err
		}
		if len(names) > 0 {
			dirSet[path] = true
		}
		return nil
	})
}

// goSourceFiles lists the non-test Go files in dir that match the
// host build context, sorted. Constraint filtering matters for
// mutually exclusive file pairs (`//go:build race` / `//go:build
// !race`): loading both sides would redeclare their symbols.
func goSourceFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	ctx := build.Default
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := ctx.MatchFile(dir, name); err != nil || !ok {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// importPathFor maps a module directory to its import path.
func (l *Loader) importPathFor(dir string) (string, error) {
	rel, err := filepath.Rel(l.RootDir, dir)
	if err != nil {
		return "", err
	}
	rel = filepath.ToSlash(rel)
	if rel == "." {
		return l.ModulePath, nil
	}
	if strings.HasPrefix(rel, "../") {
		return "", fmt.Errorf("analysis: %s is outside module root %s", dir, l.RootDir)
	}
	return l.ModulePath + "/" + rel, nil
}

// loadDir parses and type-checks the package in dir, memoized by
// import path.
func (l *Loader) loadDir(dir string) (*Package, error) {
	path, err := l.importPathFor(dir)
	if err != nil {
		return nil, err
	}
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("analysis: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	names, err := goSourceFiles(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	conf := types.Config{Importer: importerFunc(l.importFor)}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", path, err)
	}
	pkg := &Package{Path: path, Dir: dir, Fset: l.fset, Files: files, Types: tpkg, Info: info}
	l.pkgs[path] = pkg
	return pkg, nil
}

// importFor resolves one import: module-internal paths load from the
// module tree, everything else goes to the standard-library importer.
func (l *Loader) importFor(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModulePath), "/")
		pkg, err := l.loadDir(filepath.Join(l.RootDir, filepath.FromSlash(rel)))
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
