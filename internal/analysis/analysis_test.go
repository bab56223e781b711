package analysis

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// loadFixture loads the mini module tree under testdata/name. Each
// fixture shares the real module path, so checker scopes (suffix
// matches like "internal/obs") behave exactly as they do on the
// shipped tree.
func loadFixture(t *testing.T, name string) (root string, pkgs []*Package) {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err = NewLoader(root, "hetsched").Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("fixture %s loaded no packages", name)
	}
	return root, pkgs
}

// want is one expectation parsed from a fixture comment of the form
//
//	// want check-name "substring of the message"
//
// A line may carry several such pairs after one "// want".
type want struct {
	file   string // fixture-relative, slash-separated
	line   int
	check  string
	substr string
}

var wantRE = regexp.MustCompile(`([a-z]+)\s+"([^"]*)"`)

// fixtureWants scans every fixture source file for want comments.
func fixtureWants(t *testing.T, root string) []want {
	t.Helper()
	var wants []want
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(data), "\n") {
			idx := strings.Index(line, "// want ")
			if idx < 0 {
				continue
			}
			for _, m := range wantRE.FindAllStringSubmatch(line[idx+len("// want "):], -1) {
				wants = append(wants, want{filepath.ToSlash(rel), i + 1, m[1], m[2]})
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(wants) == 0 {
		t.Fatalf("fixture %s has no want comments", root)
	}
	return wants
}

// runFixture checks the given checkers against a fixture: every want
// must be matched by a diagnostic, and every diagnostic by a want.
// Ignore-directive cases in the fixtures are covered by the second
// half — a directive that stopped working produces an unmatched
// diagnostic.
func runFixture(t *testing.T, name string, checkers ...Checker) {
	t.Helper()
	root, pkgs := loadFixture(t, name)
	diags := Run(pkgs, checkers, root)
	wants := fixtureWants(t, root)
	matched := make([]bool, len(diags))
	for _, w := range wants {
		found := false
		for i, d := range diags {
			if matched[i] || d.File != w.file || d.Line != w.line || d.Check != w.check {
				continue
			}
			if !strings.Contains(d.Message, w.substr) {
				continue
			}
			matched[i] = true
			found = true
			break
		}
		if !found {
			t.Errorf("%s:%d: no [%s] diagnostic containing %q", w.file, w.line, w.check, w.substr)
		}
	}
	for i, d := range diags {
		if !matched[i] {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
}

func TestLockio(t *testing.T)   { runFixture(t, "lockio", lockioChecker{}) }
func TestTracectx(t *testing.T) { runFixture(t, "tracectx", tracectxChecker{}) }

// TestDirectiveValidation locks the malformed-directive diagnostics:
// missing reasons, unknown names and verbs, and near-miss spellings
// are each reported under the pseudo-check "directive".
func TestDirectiveValidation(t *testing.T) {
	root, pkgs := loadFixture(t, "directive")
	diags := Run(pkgs, DefaultCheckers(), root)
	wants := []struct {
		line    int
		message string
	}{
		{5, "hetvet:ignore needs a reason after the check name"},
		{8, `hetvet:ignore names unknown check "bogus"`},
		{11, "hetvet:ignore needs a check name and a reason"},
		{14, "hetvet directives must not have a space after // (write //hetvet:...)"},
		{17, "hetvet directives must be line comments (//hetvet:...), not block comments"},
		{20, "hetvet directives are lower-case (write //hetvet:...)"},
		{23, `unknown hetvet directive "frobnicate" (valid: ignore)`},
		{26, `unknown hetvet directive "coldpath" (valid: ignore)`},
		{29, `hetvet:ignore names unknown check "errdiscard"`},
	}
	if len(diags) != len(wants) {
		t.Fatalf("got %d diagnostics, want %d:\n%s", len(diags), len(wants), diagLines(diags))
	}
	for i, w := range wants {
		d := diags[i]
		if d.Check != "directive" || d.Line != w.line || d.Message != w.message {
			t.Errorf("diag %d = %s, want line %d message %q", i, d, w.line, w.message)
		}
	}
}

// TestCleanFixture asserts the sanctioned patterns — unlock-before-I/O,
// a select with a default under a lock, and reasoned ignore directives
// — produce no findings.
func TestCleanFixture(t *testing.T) {
	root, pkgs := loadFixture(t, "clean")
	if diags := Run(pkgs, DefaultCheckers(), root); len(diags) > 0 {
		t.Errorf("clean fixture produced findings:\n%s", diagLines(diags))
	}
}

// TestShippedTreeIsClean is the negative-regression test: the real
// module must stay hetvet-clean. It loads and type-checks the whole
// tree, so it is skipped under -short.
func TestShippedTreeIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	root, mod, err := ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := NewLoader(root, mod).Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	if diags := Run(pkgs, DefaultCheckers(), root); len(diags) > 0 {
		t.Errorf("the shipped tree has hetvet findings:\n%s", diagLines(diags))
	}
}

// TestLineServerLivesInWireOnly keeps the JSON-line lifecycle from
// being re-grown beside internal/wire: the two protocol packages must
// not listen, accept, scan lines or set per-direction deadlines
// themselves, and the exec data plane must not reach into the directory
// for its line codec.
func TestLineServerLivesInWireOnly(t *testing.T) {
	root, _, err := ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	lifecycle := []string{"bufio.NewScanner", ".Accept()", "net.Listen(", "SetReadDeadline", "SetWriteDeadline"}
	banned := map[string][]string{
		"internal/directory": lifecycle,
		"internal/serve":     lifecycle,
		"internal/exec":      {`"hetsched/internal/directory"`},
	}
	for dir, needles := range banned {
		files, err := filepath.Glob(filepath.Join(root, dir, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("no Go files under %s (%v)", dir, err)
		}
		for _, file := range files {
			if strings.HasSuffix(file, "_test.go") {
				continue
			}
			src, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			for n, line := range strings.Split(string(src), "\n") {
				if strings.HasPrefix(strings.TrimSpace(line), "//") {
					continue
				}
				for _, needle := range needles {
					if strings.Contains(line, needle) {
						t.Errorf("%s:%d: %s belongs in internal/wire, not here", file, n+1, needle)
					}
				}
			}
		}
	}
}

// diagLines renders diagnostics one per line for failure messages.
func diagLines(diags []Diagnostic) string {
	var sb strings.Builder
	for _, d := range diags {
		fmt.Fprintf(&sb, "\t%s\n", d.String())
	}
	return sb.String()
}
