package directory

import (
	"bufio"
	"context"
	"net"
	"strings"
	"testing"
	"time"

	"hetsched/internal/calib"
	"hetsched/internal/netmodel"
	"hetsched/internal/obs"
)

// readCounter resolves the same (name, labels) the code under test used
// — Registry.Counter is get-or-create — and reads its value back.
func readCounter(t *testing.T, reg *obs.Registry, name string, labels ...obs.Label) uint64 {
	t.Helper()
	return reg.Counter(name, "", labels...).Value()
}

// TestServerMetrics drives a live server through every op plus one
// invalid request and checks the per-op counters, the connection
// counter, and the store-version gauge.
func TestServerMetrics(t *testing.T) {
	store, err := NewStore(netmodel.Gusto(), nil)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.New()
	srv := NewServer(store)
	srv.SetMetrics(reg)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cl, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, _, err := cl.Query(0, 1); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := cl.Snapshot(); err != nil {
		t.Fatal(err)
	}
	_, _, v, err := cl.Calibrate([]calib.Update{{Src: 0, Dst: 1, Latency: 1e-3, Bandwidth: 1e6}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Version(); err != nil {
		t.Fatal(err)
	}

	if got := readCounter(t, reg, obs.MetricDirectoryServerConns); got != 1 {
		t.Errorf("connections = %d, want 1", got)
	}
	for _, op := range []string{opQuery, opSnapshot, OpCalibrate, opVersion} {
		if got := readCounter(t, reg, obs.MetricDirectoryServerRequests, obs.L("op", op)); got != 1 {
			t.Errorf("requests{op=%s} = %d, want 1", op, got)
		}
	}
	if got := reg.Gauge(obs.MetricDirectoryStoreVersion, "").Value(); got != float64(v) {
		t.Errorf("store-version gauge = %g, want %d", got, v)
	}
}

// TestServerRefusesUnknownOps: a request naming an op the protocol
// does not have — a retired write among them, now that calibrate is
// the only one — or a line that does not parse at all gets an error
// answer, counts as op="invalid", writes nothing, and leaves the
// connection open for the next request.
func TestServerRefusesUnknownOps(t *testing.T) {
	store, err := NewStore(netmodel.Gusto(), nil)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.New()
	srv := NewServer(store)
	srv.SetMetrics(reg)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	rd := bufio.NewScanner(conn)
	ask := func(line string) response {
		t.Helper()
		if _, err := conn.Write([]byte(line + "\n")); err != nil {
			t.Fatal(err)
		}
		if !rd.Scan() {
			t.Fatalf("%s: connection closed (%v)", line, rd.Err())
		}
		resp, err := parseResponse(rd.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	// malformed is the answer to a line that does not parse: the
	// decoder's own error text.
	malformed := func(line string) string {
		t.Helper()
		_, err := parseRequest([]byte(line))
		if err == nil {
			t.Fatalf("%s: parses", line)
		}
		return err.Error()
	}
	for i, tc := range []struct{ line, want string }{
		{`{"op":"update_pair","src":0,"dst":1,"latency":0.02,"bandwidth":1e6}`, `unknown op "update_pair"`},
		{`{"op":"nope"}`, `unknown op "nope"`},
		// A line that does not parse counts as invalid too.
		{`garbage`, malformed(`garbage`)},
		{`{"op":"version"`, malformed(`{"op":"version"`)},
	} {
		if resp := ask(tc.line); resp.OK || resp.Error != tc.want {
			t.Errorf("%s: answered %+v, want error %s", tc.line, resp, tc.want)
		}
		if got := readCounter(t, reg, obs.MetricDirectoryServerRequests, obs.L("op", "invalid")); got != uint64(i+1) {
			t.Errorf("%s: requests{op=invalid} = %d, want %d", tc.line, got, i+1)
		}
		if resp := ask(`{"op":"version"}`); !resp.OK || resp.Version != 0 {
			t.Errorf("after %s: version answered %+v, want ok at version 0", tc.line, resp)
		}
	}
}

// TestResilientClientMetrics checks the client-side counters: requests
// while the server is up; retries and a stale serve once it goes away.
func TestResilientClientMetrics(t *testing.T) {
	store, err := NewStore(netmodel.Gusto(), nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(store)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	reg := obs.New()
	rc := NewResilientClient(addr, ResilientConfig{
		Retries:     2,
		BackoffBase: time.Millisecond,
		Sleep:       func(time.Duration) {},
		Metrics:     reg,
	})
	defer rc.Close()

	if _, _, _, err := rc.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if got := readCounter(t, reg, obs.MetricDirectoryRequests); got != 1 {
		t.Errorf("requests = %d, want 1", got)
	}

	// Server gone: the snapshot must retry, then serve the cache.
	srv.Close()
	_, _, meta, err := rc.Snapshot()
	if err != nil {
		t.Fatalf("stale fallback failed: %v", err)
	}
	if !meta.Stale {
		t.Error("expected a stale serve")
	}
	if got := readCounter(t, reg, obs.MetricDirectoryRequests); got != 2 {
		t.Errorf("requests = %d, want 2", got)
	}
	if got := readCounter(t, reg, obs.MetricDirectoryRetries); got == 0 {
		t.Error("retries counter never moved")
	}
	if got := readCounter(t, reg, obs.MetricDirectoryStaleServes); got != 1 {
		t.Errorf("stale serves = %d, want 1", got)
	}
	ctr := rc.Counters()
	if uint64(ctr.Requests) != readCounter(t, reg, obs.MetricDirectoryRequests) ||
		uint64(ctr.Retries) != readCounter(t, reg, obs.MetricDirectoryRetries) ||
		uint64(ctr.StaleServes) != readCounter(t, reg, obs.MetricDirectoryStaleServes) {
		t.Errorf("registry disagrees with Counters(): %+v", ctr)
	}
}

// spanNames lists a trace's records as "track/name" strings.
func spanNames(rt *obs.ReqTrace) []string {
	var out []string
	for _, rec := range rt.Spans() {
		out = append(out, rec.Track+"/"+rec.Name)
	}
	return out
}

// TestResilientClientTrace: a request trace on ctx gets the op's span
// and a mark for each redial, retry, and cache serve the op went
// through.
func TestResilientClientTrace(t *testing.T) {
	store, err := NewStore(netmodel.Gusto(), nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(store)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rc := NewResilientClient(addr, ResilientConfig{
		Retries:     2,
		BackoffBase: time.Millisecond,
		Sleep:       func(time.Duration) {},
	})
	defer rc.Close()
	if _, _, _, err := rc.Snapshot(); err != nil {
		t.Fatal(err)
	}

	// Dropping the connection makes the next request a redial.
	rc.Close()
	up := obs.NewReqTrace(0, nil)
	if _, _, _, err := rc.SnapshotContext(obs.WithReqTrace(context.Background(), up)); err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(spanNames(up), " "), "directory/redial directory/snapshot"; got != want {
		t.Errorf("redial trace = %q, want %q", got, want)
	}

	// Server gone: the op retries, fails, and the cache answers.
	srv.Close()
	down := obs.NewReqTrace(0, nil)
	_, _, meta, err := rc.SnapshotContext(obs.WithReqTrace(context.Background(), down))
	if err != nil || !meta.Stale {
		t.Fatalf("stale fallback: meta %+v, err %v", meta, err)
	}
	var snapshot obs.SpanRecord
	marks := map[string]obs.SpanRecord{}
	for _, rec := range down.Spans() {
		if rec.Track != "directory" {
			t.Errorf("record on track %q", rec.Track)
		}
		if rec.Name == "snapshot" {
			snapshot = rec
		} else {
			marks[rec.Name] = rec
		}
	}
	if snapshot.Span == 0 || snapshot.Note == "" {
		t.Errorf("no snapshot span noted with its error: %+v", down.Spans())
	}
	if retry, ok := marks["retry"]; !ok || retry.Parent != snapshot.Span || retry.Note != "snapshot" {
		t.Errorf("retry mark %+v, want a child of span %d noted with the op", retry, snapshot.Span)
	}
	if _, ok := marks["cache-serve"]; !ok {
		t.Errorf("no cache-serve mark: %v", spanNames(down))
	}
}
