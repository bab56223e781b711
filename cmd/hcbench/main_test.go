package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/fig-all.golden")

// TestFigAllGolden holds the reproduction byte for byte: every figure
// and extension study at two trials and P up to 15 must print exactly
// the committed text, sequentially and on four workers. A map range or
// a draw from the global rand source anywhere on a figure's path shows
// up here as a diff. Regenerate with -update after a deliberate change
// to the numbers, and say why in the change.
func TestFigAllGolden(t *testing.T) {
	golden := filepath.Join("testdata", "fig-all.golden")
	for _, workers := range []string{"1", "4"} {
		var out bytes.Buffer
		if err := run([]string{"-fig", "all", "-trials", "2", "-pmax", "15", "-workers", workers}, &out); err != nil {
			t.Fatalf("-workers %s: %v", workers, err)
		}
		if *update && workers == "1" {
			if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		if got := out.String(); got != string(want) {
			t.Errorf("-workers %s differs from %s at %s", workers, golden, firstDiff(got, string(want)))
		}
	}
}

// firstDiff names the first line where got and want part.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return "line " + strconv.Itoa(i+1) + ":\n got: " + g[i] + "\nwant: " + w[i]
		}
	}
	return "the end: got " + strconv.Itoa(len(g)) + " lines, want " + strconv.Itoa(len(w))
}
