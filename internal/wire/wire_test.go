package wire

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"hetsched/internal/leakcheck"
)

// TestEncodeLineOneAllocation: a line is json.Marshal's bytes plus the
// newline, and costs one allocation at every length, malloc size
// classes included (JSON of 16, 24, 32, … bytes), where appending the
// newline to json.Marshal's result cost a second. AppendLine writes the
// same bytes after a prefix, and into a buffer with room allocates
// nothing.
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
		buf := make([]byte, 1, 256)
		if out, err := AppendLine(buf, v); err != nil || string(out[1:]) != string(line) {
			t.Fatalf("AppendLine after a prefix = %q, %v; want %q", out, err, line)
		}
		if got := testing.AllocsPerRun(20, func() { AppendLine(buf[:0], v) }); got != 0 {
			t.Errorf("a %d-byte line appended into room costs %v allocations, want 0", len(line), got)
		}
	}
}

// TestAppendLineErrorKeepsDst: a value json cannot encode leaves dst as
// it was.
func TestAppendLineErrorKeepsDst(t *testing.T) {
	out, err := AppendLine([]byte("x"), math.NaN())
	if err == nil || string(out) != "x" {
		t.Fatalf("AppendLine(NaN) = %q, %v; want \"x\" and an error", out, err)
	}
}
