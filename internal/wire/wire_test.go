package wire

import (
	"encoding/json"
	"strings"
	"testing"

	"hetsched/internal/leakcheck"
)

// TestEncodeLineOneAllocation: a line is json.Marshal's bytes plus the
// newline, and costs one allocation at every length, malloc size
// classes included (JSON of 16, 24, 32, … bytes), where appending the
// newline to json.Marshal's result cost a second.
func TestEncodeLineOneAllocation(t *testing.T) {
	for n := 1; n <= 130; n++ {
		v := &struct {
			S string `json:"s"`
		}{strings.Repeat("x", n)}
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		line, err := EncodeLine(v)
		if err != nil || string(line) != string(want)+"\n" {
			t.Fatalf("EncodeLine = %q, %v; want %q", line, err, string(want)+"\n")
		}
		if leakcheck.RaceEnabled {
			continue // the race detector instruments allocations
		}
		if got := testing.AllocsPerRun(20, func() { EncodeLine(v) }); got != 1 {
			t.Errorf("a %d-byte line costs %v allocations, want 1", len(line), got)
		}
	}
}
