package serve

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hetsched/internal/directory"
	"hetsched/internal/obs"
)

// tracedTestDaemon builds a daemon with the full observability surface
// armed: flight recorder, tail sampler (retaining everything), metrics.
func tracedTestDaemon(t *testing.T, cfg Config) (*Daemon, *obs.FlightRecorder, *obs.TailSampler) {
	t.Helper()
	flight := obs.NewFlightRecorder(128, nil)
	tail := obs.NewTailSampler(64)
	cfg.Flight = flight
	cfg.Tail = tail
	cfg.TailAll = true
	return newTestDaemon(t, 4, okSource(4), nil, cfg), flight, tail
}

func TestStatuszSnapshot(t *testing.T) {
	d, flight, tail := tracedTestDaemon(t, Config{Workers: 2, Queue: 8})
	for i := 0; i < 3; i++ {
		resp := d.Plan(context.Background(), directory.PlanRequest{
			ID: uint64(i), P: 4, Kind: directory.PatternRandom, Bytes: 1024, Seed: int64(i)})
		if !resp.OK {
			t.Fatalf("request %d not served: %+v", i, resp)
		}
		if resp.Trace == "" {
			t.Fatalf("tail sampling armed but response %d carries no trace ID", i)
		}
	}
	st := d.Statusz()
	if st.Draining || st.Health != "ok" {
		t.Fatalf("statusz = draining=%v health=%q, want serving/ok", st.Draining, st.Health)
	}
	if st.Workers != 2 || st.QueueCap != 8 {
		t.Fatalf("statusz shape = workers=%d queuecap=%d, want 2/8", st.Workers, st.QueueCap)
	}
	if st.Stats.Served != 3 {
		t.Fatalf("statusz served = %d, want 3", st.Stats.Served)
	}
	if st.TailCap != tail.Cap() || st.TailLen != 3 || st.TailRetained != 3 {
		t.Fatalf("statusz tail = len=%d cap=%d retained=%d, want 3/%d/3",
			st.TailLen, st.TailCap, st.TailRetained, tail.Cap())
	}
	if len(st.Slowest) != 3 {
		t.Fatalf("statusz slowest has %d entries, want 3", len(st.Slowest))
	}
	for _, s := range st.Slowest {
		if s.Trace == "" || s.Outcome != "served" || s.Spans == 0 {
			t.Fatalf("slowest entry incomplete: %+v", s)
		}
	}
	// Slowest is ordered, slowest first.
	for i := 1; i < len(st.Slowest); i++ {
		if st.Slowest[i].LatencyMS > st.Slowest[i-1].LatencyMS {
			t.Fatalf("slowest out of order: %+v", st.Slowest)
		}
	}
	if st.FlightSeq != flight.Seq() || len(st.Flight) == 0 {
		t.Fatalf("statusz flight = seq=%d len=%d, want seq=%d and events", st.FlightSeq,
			len(st.Flight), flight.Seq())
	}
}

func TestStatuszRenderText(t *testing.T) {
	d, _, _ := tracedTestDaemon(t, Config{})
	resp := d.Plan(context.Background(), directory.PlanRequest{
		ID: 1, P: 4, Kind: directory.PatternUniform, Bytes: 512})
	if !resp.OK {
		t.Fatalf("plan failed: %+v", resp)
	}
	var b strings.Builder
	d.Statusz().RenderText(&b)
	out := b.String()
	for _, want := range []string{
		"hetpland statusz: serving, health=ok",
		"queue:", "outcomes:", "planning:", "tail sampler:", "flight recorder:",
		"trace " + resp.Trace,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("statusz text missing %q:\n%s", want, out)
		}
	}
}

func TestStatuszHandlers(t *testing.T) {
	d, _, tail := tracedTestDaemon(t, Config{})
	resp := d.Plan(context.Background(), directory.PlanRequest{
		ID: 1, P: 4, Kind: directory.PatternUniform, Bytes: 512})
	if !resp.OK {
		t.Fatalf("plan failed: %+v", resp)
	}

	rr := httptest.NewRecorder()
	d.StatuszHandler().ServeHTTP(rr, httptest.NewRequest("GET", "/statusz", nil))
	if rr.Code != 200 || !strings.Contains(rr.Body.String(), "hetpland statusz") {
		t.Fatalf("text statusz = %d %q", rr.Code, rr.Body.String())
	}

	rr = httptest.NewRecorder()
	d.StatuszHandler().ServeHTTP(rr, httptest.NewRequest("GET", "/statusz?format=json", nil))
	if rr.Code != 200 {
		t.Fatalf("json statusz status = %d", rr.Code)
	}
	var st Statusz
	if err := json.Unmarshal(rr.Body.Bytes(), &st); err != nil {
		t.Fatalf("json statusz does not parse: %v\n%s", err, rr.Body.String())
	}
	if st.Stats.Served != 1 || st.TailLen != tail.Len() {
		t.Fatalf("json statusz = %+v", st)
	}

	rr = httptest.NewRecorder()
	d.TracesHandler().ServeHTTP(rr, httptest.NewRequest("GET", "/statusz/traces", nil))
	if rr.Code != 200 {
		t.Fatalf("traces status = %d", rr.Code)
	}
	var file struct {
		TraceEvents []struct {
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &file); err != nil {
		t.Fatalf("traces export does not parse: %v", err)
	}
	found := false
	for _, ev := range file.TraceEvents {
		if ev.Args["trace"] == resp.Trace {
			found = true
		}
	}
	if !found {
		t.Fatalf("trace %s not in the Perfetto export", resp.Trace)
	}
}

func TestStatuszNilDaemon(t *testing.T) {
	var d *Daemon
	st := d.Statusz()
	if !st.Draining || st.Health != "degraded" {
		t.Fatalf("nil statusz = %+v, want draining/degraded", st)
	}
	var b strings.Builder
	st.RenderText(&b) // must not panic
	if !strings.Contains(b.String(), "draining") {
		t.Fatalf("nil statusz text = %q", b.String())
	}
	rr := httptest.NewRecorder()
	d.StatuszHandler().ServeHTTP(rr, httptest.NewRequest("GET", "/statusz", nil))
	if rr.Code != 503 {
		t.Fatalf("nil daemon statusz status = %d, want 503", rr.Code)
	}
	rr = httptest.NewRecorder()
	d.TracesHandler().ServeHTTP(rr, httptest.NewRequest("GET", "/statusz/traces", nil))
	if rr.Code != 503 {
		t.Fatalf("nil daemon traces status = %d, want 503", rr.Code)
	}
}

// TestTraceIDRidesTheWire pins the wire-level correlation contract: a
// client-supplied trace ID is echoed on the response, tagged on the
// daemon's flight events, and (with the sampler armed) names a retained
// span tree containing serve-track spans.
func TestTraceIDRidesTheWire(t *testing.T) {
	d, flight, tail := tracedTestDaemon(t, Config{})
	srv, addr := startTestServer(t, d, ServerConfig{})
	defer srv.Close()

	id := obs.NewTraceID()
	ctx := obs.WithTrace(context.Background(), obs.TraceContext{TraceID: id})
	cl, err := Dial(context.Background(), addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	resp, err := cl.Plan(ctx, directory.PlanRequest{
		ID: 1, P: 4, Kind: directory.PatternUniform, Bytes: 2048})
	if err != nil || !resp.OK {
		t.Fatalf("plan failed: %v %+v", err, resp)
	}
	want := obs.FormatTraceID(id)
	if resp.Trace != want {
		t.Fatalf("response trace = %q, want the client's %q", resp.Trace, want)
	}
	if !tail.Has(id) {
		t.Fatal("span tree for the client's trace ID not retained")
	}
	var tagged bool
	for _, ev := range flight.Snapshot() {
		if ev.Trace == id && ev.Sys == "serve" {
			tagged = true
		}
	}
	if !tagged {
		t.Fatal("no serve flight event tagged with the client's trace ID")
	}
	var spans []obs.SpanRecord
	for _, rt := range tail.Snapshot() {
		if rt.TraceID() == id {
			spans = rt.Spans()
		}
	}
	var sawRequest, sawPlan bool
	for _, sp := range spans {
		switch {
		case sp.Track == "serve" && sp.Name == "request":
			sawRequest = true
		case sp.Track == "serve" && sp.Name == "plan":
			sawPlan = true
		}
	}
	if !sawRequest || !sawPlan {
		t.Fatalf("span tree missing request/plan spans: %+v", spans)
	}
}
