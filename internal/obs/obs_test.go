package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"hetsched/internal/timing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fakeClock advances a fixed step per call, making traces and timing
// histograms deterministic.
func fakeClock(step time.Duration) func() time.Time {
	base := time.Unix(0, 0)
	n := 0
	var mu sync.Mutex
	return func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		t := base.Add(time.Duration(n) * step)
		n++
		return t
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x", "")
	g := r.Gauge("y", "")
	h := r.Histogram("z", "", nil)
	if c != nil || g != nil || h != nil {
		t.Fatalf("nil registry must hand out nil instruments")
	}
	c.Inc()
	c.Add(3)
	g.Set(1)
	h.Observe(0.5)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatalf("nil instruments must read as zero")
	}
	r.Declare("a", "b", TypeCounter, nil)
	if err := r.WritePrometheus(io.Discard); err != nil {
		t.Fatalf("nil registry scrape: %v", err)
	}

	// No span trees still make a loadable trace file.
	var buf bytes.Buffer
	if err := WritePerfetto(&buf); err != nil {
		t.Fatalf("empty trace write: %v", err)
	}
	var out map[string]any
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("empty trace JSON invalid: %v", err)
	}
}

func TestInstrumentsAreShared(t *testing.T) {
	r := New()
	a := r.Counter("hits_total", "hits", L("route", "x"))
	b := r.Counter("hits_total", "hits", L("route", "x"))
	if a != b {
		t.Fatalf("same (name, labels) must resolve to one counter")
	}
	c := r.Counter("hits_total", "hits", L("route", "y"))
	if a == c {
		t.Fatalf("different labels must resolve to different counters")
	}
	a.Inc()
	b.Add(2)
	if a.Value() != 3 {
		t.Fatalf("shared counter = %d, want 3", a.Value())
	}
}

func TestTypeConflictPanics(t *testing.T) {
	r := New()
	r.Counter("m", "")
	defer func() {
		if recover() == nil {
			t.Fatalf("registering m as gauge after counter must panic")
		}
	}()
	r.Gauge("m", "")
}

// TestConcurrentRegistry hammers one registry from many goroutines —
// parallel counter increments, histogram observes, gauge sets, lazy
// instrument resolution, and scrapes mid-update — and checks the final
// totals. Run with -race.
func TestConcurrentRegistry(t *testing.T) {
	r := New()
	const workers = 8
	const perWorker = 400
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := r.Counter("ops_total", "ops")
			h := r.Histogram("lat_seconds", "lat", []float64{0.25, 0.5, 0.75})
			g := r.Gauge("depth", "depth")
			for i := 0; i < perWorker; i++ {
				c.Inc()
				h.Observe(float64(i%4) / 4)
				g.Set(float64(i))
				// Lazy per-label resolution on the hot path, as the
				// quality histograms do.
				r.Counter("labeled_total", "labeled", L("w", string(rune('a'+w)))).Inc()
			}
		}(w)
	}
	// Concurrent scrapes while the writers run.
	var scrapeWG sync.WaitGroup
	stop := make(chan struct{})
	scrapeWG.Add(1)
	go func() {
		defer scrapeWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if err := r.WritePrometheus(io.Discard); err != nil {
					t.Errorf("scrape: %v", err)
					return
				}
			}
		}
	}()
	wg.Wait()
	close(stop)
	scrapeWG.Wait()

	if got := r.Counter("ops_total", "").Value(); got != workers*perWorker {
		t.Fatalf("ops_total = %d, want %d", got, workers*perWorker)
	}
	h := r.Histogram("lat_seconds", "", []float64{0.25, 0.5, 0.75})
	if h.Count() != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", h.Count(), workers*perWorker)
	}
	for w := 0; w < workers; w++ {
		if got := r.Counter("labeled_total", "", L("w", string(rune('a'+w)))).Value(); got != perWorker {
			t.Fatalf("labeled_total{w=%c} = %d, want %d", 'a'+w, got, perWorker)
		}
	}
}

// TestConcurrentTracer records spans and marks on one request trace
// from many goroutines, up to and past the span cap. Run with -race.
func TestConcurrentTracer(t *testing.T) {
	rt := NewReqTrace(1, fakeClock(time.Millisecond))
	ctx := WithReqTrace(context.Background(), rt)
	const workers, perWorker = 8, 20
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				sctx, sp := StartSpan(ctx, "track", "op")
				Mark(sctx, "track2", "tick", "")
				sp.End()
			}
		}()
	}
	wg.Wait()
	spans := rt.Spans()
	if got := len(spans) + rt.Dropped(); got != 2*workers*perWorker {
		t.Fatalf("kept %d + dropped %d spans, want %d", len(spans), rt.Dropped(), 2*workers*perWorker)
	}
	if len(spans) != maxReqSpans {
		t.Fatalf("kept %d spans, want the cap %d", len(spans), maxReqSpans)
	}
	ids := map[uint64]bool{}
	for _, rec := range spans {
		if ids[rec.Span] {
			t.Fatalf("span ID %d recorded twice", rec.Span)
		}
		ids[rec.Span] = true
	}
	var buf bytes.Buffer
	if err := WritePerfetto(&buf, rt); err != nil {
		t.Fatalf("write: %v", err)
	}
	var out struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("trace JSON invalid: %v", err)
	}
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run go test -run Golden -update): %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s mismatch:\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// TestGoldenPrometheus pins the exact text exposition: family ordering,
// label escaping, histogram buckets, and declared-but-empty families.
func TestGoldenPrometheus(t *testing.T) {
	r := New()
	r.Declare("hetsched_empty_total", "A declared family with no samples yet.", TypeCounter, nil)
	r.Counter("hetsched_requests_total", "Requests served.").Add(42)
	r.Counter("hetsched_served_total", "Serves by rung.", L("rung", "fresh")).Add(7)
	r.Counter("hetsched_served_total", "Serves by rung.", L("rung", "stale")).Add(2)
	r.Gauge("hetsched_version", "Store version.").Set(13)
	r.Gauge("hetsched_load", "With an escaped label.", L("path", `a\b"c`)).Set(0.5)
	h := r.Histogram("hetsched_ratio", "Quality ratio.", []float64{1, 1.5, 2}, L("algorithm", "openshop"))
	for _, v := range []float64{1, 1.2, 1.2, 1.9, 3.5} {
		h.Observe(v)
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "prometheus.golden", buf.Bytes())
}

// TestGoldenTrace pins the Chrome trace_event output of a data-built
// tree: a rendered schedule with one track per sender in processor
// order (isi sends nothing, so it has none) and one slice per message,
// then a checkpoint instant on its own track.
func TestGoldenTrace(t *testing.T) {
	s := &timing.Schedule{N: 3, Events: []timing.Event{
		{Src: 0, Dst: 1, Start: 0, Finish: 0.25},
		{Src: 1, Dst: 2, Start: 0, Finish: 0.5},
		{Src: 0, Dst: 2, Start: 0.25, Finish: 1},
	}}
	checkpoint := SpanRecord{Track: "control", Name: "checkpoint",
		Start: 500 * time.Millisecond, End: 500 * time.Millisecond, Note: "replanned, 1 remaining"}
	rt := ScheduleTrace(s, []string{"argonne", "", "isi"}, checkpoint)
	var buf bytes.Buffer
	if err := WritePerfetto(&buf, rt); err != nil {
		t.Fatal(err)
	}
	// The artifact must be loadable: valid JSON with a traceEvents array
	// whose slices carry ph/ts/dur.
	var out struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("trace JSON invalid: %v", err)
	}
	var slices, instants int
	var tracks []any
	for _, e := range out.TraceEvents {
		switch e["ph"] {
		case "X":
			slices++
		case "i":
			instants++
		case "M":
			tracks = append(tracks, e["args"].(map[string]any)["name"])
		}
	}
	if slices != 3 || instants != 1 {
		t.Fatalf("trace has %d slices and %d instants, want 3 and 1", slices, instants)
	}
	if got := fmt.Sprint(tracks); got != "[argonne P1 control]" {
		t.Fatalf("tracks = %s, want processors in order, then control", got)
	}
	checkGolden(t, "trace.golden", buf.Bytes())
}

func TestHandlerEndpoints(t *testing.T) {
	r := New()
	r.Counter("hetsched_requests_total", "Requests.").Inc()
	addr, shutdown, err := Serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()
	get := func(path string) (int, string) {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	code, body := get("/metrics")
	if code != http.StatusOK || !strings.Contains(body, "hetsched_requests_total 1") {
		t.Fatalf("/metrics = %d:\n%s", code, body)
	}
	code, body = get("/debug/vars")
	if code != http.StatusOK || !strings.Contains(body, "hetsched_metrics") {
		t.Fatalf("/debug/vars = %d:\n%s", code, body)
	}
	code, _ = get("/debug/pprof/cmdline")
	if code != http.StatusOK {
		t.Fatalf("/debug/pprof/cmdline = %d", code)
	}
}
