package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// chdir moves the test process into dir and restores the previous
// working directory on cleanup.
func chdir(t *testing.T, dir string) {
	t.Helper()
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(old); err != nil {
			t.Fatal(err)
		}
	})
}

// fixture resolves one of internal/analysis's testdata trees. The
// golden and clean fixtures carry their own go.mod, so running hetvet
// from inside them analyzes the fixture, not the enclosing repo.
func fixture(t *testing.T, name string) string {
	t.Helper()
	dir, err := filepath.Abs(filepath.Join("..", "..", "internal", "analysis", "testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestUsageErrorExits2(t *testing.T) {
	var out, errBuf bytes.Buffer
	if code := run([]string{"-definitely-not-a-flag"}, &out, &errBuf); code != 2 {
		t.Errorf("exit = %d, want 2 (stderr: %s)", code, errBuf.String())
	}
}

func TestLoadErrorExits2(t *testing.T) {
	chdir(t, fixture(t, "golden"))
	var out, errBuf bytes.Buffer
	if code := run([]string{"does/not/exist"}, &out, &errBuf); code != 2 {
		t.Errorf("exit = %d, want 2", code)
	}
	if !strings.Contains(errBuf.String(), "hetvet:") {
		t.Errorf("stderr = %q, want a hetvet: error", errBuf.String())
	}
}

// checkNames is the suite -list prints, in order.
var checkNames = []string{"lockio", "tracectx"}

func TestListExits0(t *testing.T) {
	var out, errBuf bytes.Buffer
	if code := run([]string{"-list"}, &out, &errBuf); code != 0 {
		t.Fatalf("exit = %d, want 0", code)
	}
	var names []string
	for _, line := range strings.Split(strings.TrimRight(out.String(), "\n"), "\n") {
		names = append(names, strings.Fields(line)[0])
	}
	if got, want := strings.Join(names, " "), strings.Join(checkNames, " "); got != want {
		t.Errorf("-list names = %s, want %s:\n%s", got, want, out.String())
	}
}

// TestUnknownCheckExits2 locks the -checks typo behavior: a name the
// suite does not have is a usage error that lists the valid names,
// never a silent no-op run.
func TestUnknownCheckExits2(t *testing.T) {
	var out, errBuf bytes.Buffer
	if code := run([]string{"-checks=bogus"}, &out, &errBuf); code != 2 {
		t.Fatalf("exit = %d, want 2 (stderr: %s)", code, errBuf.String())
	}
	msg := errBuf.String()
	if !strings.Contains(msg, `unknown check "bogus"`) {
		t.Errorf("stderr = %q, want the unknown check named", msg)
	}
	for _, name := range checkNames {
		if !strings.Contains(msg, name) {
			t.Errorf("stderr missing valid name %q:\n%s", name, msg)
		}
	}
}

// TestChecksSubset: selecting the check that fires reports findings;
// selecting one that does not leaves the same tree clean.
func TestChecksSubset(t *testing.T) {
	chdir(t, fixture(t, "golden"))
	var out, errBuf bytes.Buffer
	if code := run([]string{"-checks=lockio", "./..."}, &out, &errBuf); code != 1 {
		t.Fatalf("-checks=lockio exit = %d, want 1 (stderr: %s)", code, errBuf.String())
	}
	out.Reset()
	errBuf.Reset()
	if code := run([]string{"-checks=tracectx", "./..."}, &out, &errBuf); code != 0 {
		t.Fatalf("-checks=tracectx exit = %d, want 0:\n%s%s", code, out.String(), errBuf.String())
	}
}

func TestFindingsExit1(t *testing.T) {
	chdir(t, fixture(t, "golden"))
	var out, errBuf bytes.Buffer
	if code := run([]string{"./..."}, &out, &errBuf); code != 1 {
		t.Fatalf("exit = %d, want 1 (stderr: %s)", code, errBuf.String())
	}
	lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d findings, want 2:\n%s", len(lines), out.String())
	}
	for _, line := range lines {
		if !strings.HasPrefix(line, "internal/wire/g.go:") || !strings.Contains(line, "[lockio]") {
			t.Errorf("unexpected finding line: %s", line)
		}
	}
}

func TestCleanTreeExits0(t *testing.T) {
	chdir(t, fixture(t, "clean"))
	var out, errBuf bytes.Buffer
	if code := run([]string{"./..."}, &out, &errBuf); code != 0 {
		t.Fatalf("exit = %d, want 0:\n%s%s", code, out.String(), errBuf.String())
	}
	if out.Len() != 0 {
		t.Errorf("clean run produced output:\n%s", out.String())
	}
}
