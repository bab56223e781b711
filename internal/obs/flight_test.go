package obs

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestFlightRecorderRing(t *testing.T) {
	fl := NewFlightRecorder(4, fakeClock(time.Millisecond))
	if fl.Cap() != 4 {
		t.Fatalf("Cap = %d, want 4", fl.Cap())
	}
	if fl.Len() != 0 || fl.Seq() != 0 {
		t.Fatalf("fresh recorder: Len=%d Seq=%d, want 0,0", fl.Len(), fl.Seq())
	}
	fl.Record("serve", "admit", 7, 1, 0)
	fl.Record("serve", "served", 7, 2, 0)
	if fl.Len() != 2 || fl.Seq() != 2 {
		t.Fatalf("after 2 records: Len=%d Seq=%d, want 2,2", fl.Len(), fl.Seq())
	}
	for i := int64(0); i < 10; i++ {
		fl.Record("exec", "round", 0, i, 0)
	}
	// The ring is bounded: capacity never grows past 4, Seq keeps
	// counting everything ever recorded.
	if fl.Len() != 4 {
		t.Fatalf("after wraparound: Len=%d, want 4 (ring bounded)", fl.Len())
	}
	if fl.Seq() != 12 {
		t.Fatalf("Seq = %d, want 12", fl.Seq())
	}
	evs := fl.Snapshot()
	if len(evs) != 4 {
		t.Fatalf("Snapshot len = %d, want 4", len(evs))
	}
	// Oldest first, and only the most recent events survive.
	for i, ev := range evs {
		wantSeq := uint64(9 + i)
		if ev.Seq != wantSeq {
			t.Fatalf("Snapshot[%d].Seq = %d, want %d", i, ev.Seq, wantSeq)
		}
		if ev.Sys != "exec" || ev.Event != "round" {
			t.Fatalf("Snapshot[%d] = %q/%q, want exec/round", i, ev.Sys, ev.Event)
		}
	}
	tail := fl.Tail(2)
	if len(tail) != 2 || tail[0].Seq != 11 || tail[1].Seq != 12 {
		t.Fatalf("Tail(2) = %+v, want seqs 11,12", tail)
	}
	if got := fl.Tail(100); len(got) != 4 {
		t.Fatalf("Tail(100) len = %d, want 4", len(got))
	}
	if fl.Tail(0) != nil {
		t.Fatal("Tail(0) should be nil")
	}
}

func TestFlightRecorderDefaultSize(t *testing.T) {
	if got := NewFlightRecorder(0, nil).Cap(); got != defaultFlightSize {
		t.Fatalf("default Cap = %d, want %d", got, defaultFlightSize)
	}
}

func TestFlightRecorderDumpFormat(t *testing.T) {
	fl := NewFlightRecorder(8, fakeClock(time.Second))
	fl.Record("serve", "shed", 0xabcd, 32, 64)
	fl.Record("comm", "rung_down", 0, 1, 2)
	var buf bytes.Buffer
	if err := fl.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("dump has %d lines, want 3:\n%s", len(lines), out)
	}
	if lines[0] != "# hetsched flight recorder: 2 events" {
		t.Fatalf("dump header = %q", lines[0])
	}
	if !strings.Contains(lines[1], "serve shed") ||
		!strings.Contains(lines[1], "trace=000000000000abcd") ||
		!strings.Contains(lines[1], "a=32 b=64") {
		t.Fatalf("event line 1 = %q", lines[1])
	}
	// An untraced event renders trace=- rather than 16 zeros.
	if !strings.Contains(lines[2], "trace=-") {
		t.Fatalf("event line 2 = %q, want trace=-", lines[2])
	}
}

func TestFlightRecorderTrigger(t *testing.T) {
	clock := fakeClock(10 * time.Millisecond)
	fl := NewFlightRecorder(8, clock)
	path := filepath.Join(t.TempDir(), "flight.dump")
	fl.SetDumpPath(path)
	fl.Record("serve", "shed", 42, 1, 2)

	got, ok := fl.Trigger("test-outage")
	if !ok || got != path {
		t.Fatalf("Trigger = (%q, %v), want (%q, true)", got, ok, path)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dump := string(data)
	if !strings.Contains(dump, `reason="test-outage"`) {
		t.Fatalf("dump missing reason header:\n%s", dump)
	}
	if !strings.Contains(dump, "serve") || !strings.Contains(dump, "shed") {
		t.Fatalf("dump missing recorded event:\n%s", dump)
	}

	// A second trigger within the rate-limit window is refused; after
	// the window it succeeds again. The fake clock steps 10ms per call,
	// so burn calls until a second has passed.
	if _, ok := fl.Trigger("again"); ok {
		t.Fatal("second Trigger within 1s should be rate-limited")
	}
	for i := 0; i < 110; i++ {
		clock()
	}
	if _, ok := fl.Trigger("later"); !ok {
		t.Fatal("Trigger after the rate-limit window should succeed")
	}
}

func TestFlightRecorderNil(t *testing.T) {
	var fl *FlightRecorder
	fl.Record("serve", "x", 0, 0, 0) // must not panic
	fl.SetDumpPath("/nope")
	if fl.Len() != 0 || fl.Cap() != 0 || fl.Seq() != 0 {
		t.Fatal("nil recorder should report zero sizes")
	}
	if fl.Snapshot() != nil || fl.Tail(5) != nil {
		t.Fatal("nil recorder should snapshot nil")
	}
	if _, ok := fl.Trigger("x"); ok {
		t.Fatal("nil recorder must not dump")
	}
	var buf bytes.Buffer
	if err := fl.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "0 events") {
		t.Fatalf("nil Dump = %q, want well-formed empty dump", buf.String())
	}
	if fl.WithMetrics(New()) != nil {
		t.Fatal("nil WithMetrics should stay nil")
	}
}

func TestFlightRecorderMetrics(t *testing.T) {
	r := New()
	fl := NewFlightRecorder(8, fakeClock(time.Millisecond)).WithMetrics(r)
	fl.SetDumpPath(filepath.Join(t.TempDir(), "flight.dump"))
	fl.Record("serve", "a", 0, 0, 0)
	fl.Record("serve", "b", 0, 0, 0)
	if _, ok := fl.Trigger("metrics"); !ok {
		t.Fatal("Trigger failed")
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, MetricFlightEvents+" 2") {
		t.Fatalf("want %s 2 in scrape:\n%s", MetricFlightEvents, out)
	}
	if !strings.Contains(out, MetricFlightDumps+" 1") {
		t.Fatalf("want %s 1 in scrape:\n%s", MetricFlightDumps, out)
	}
}

// TestFlightRecordZeroAlloc pins the steady-state record path at zero
// heap allocations — the property that makes an always-on recorder
// affordable — with its event counter wired, as the daemons run it.
// Exact allocation counts do not hold under the race detector's
// instrumentation, so this is gated like the comm-layer alloc pins.
func TestFlightRecordZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	fl := NewFlightRecorder(64, nil).WithMetrics(New())
	allocs := testing.AllocsPerRun(50, func() {
		fl.Record("serve", "served", 0xbeef, 17, 3)
	})
	if allocs != 0 {
		t.Fatalf("Record allocates %.1f per op, want 0", allocs)
	}
	// The disabled (nil-recorder) path must also be free.
	var off *FlightRecorder
	allocs = testing.AllocsPerRun(50, func() {
		off.Record("serve", "served", 0xbeef, 17, 3)
	})
	if allocs != 0 {
		t.Fatalf("nil Record allocates %.1f per op, want 0", allocs)
	}
}

func BenchmarkFlightRecord(b *testing.B) {
	fl := NewFlightRecorder(1024, nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fl.Record("serve", "served", uint64(i), int64(i), 0)
	}
}

func BenchmarkFlightRecordDisabled(b *testing.B) {
	var fl *FlightRecorder
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fl.Record("serve", "served", uint64(i), int64(i), 0)
	}
}
