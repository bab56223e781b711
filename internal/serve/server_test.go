package serve

import (
	"bufio"
	"context"
	"net"
	"strings"
	"testing"
	"time"

	"hetsched/internal/directory"
	"hetsched/internal/faults"
)

func startTestServer(t *testing.T, d *Daemon, cfg ServerConfig) (*Server, string) {
	t.Helper()
	s := NewServer(d, cfg)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, addr
}

func TestServerRoundTrip(t *testing.T) {
	d := newTestDaemon(t, 4, okSource(4), func() (uint64, error) { return 9, nil }, Config{})
	_, addr := startTestServer(t, d, ServerConfig{})
	c, err := Dial(context.Background(), addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	resp, err := c.Plan(context.Background(), directory.PlanRequest{ID: 11, P: 4, Kind: directory.PatternUniform,
		Bytes: 2048, DeadlineMS: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.OK || resp.Status != directory.PlanServed || resp.ID != 11 {
		t.Fatalf("round trip failed: %+v", resp)
	}
	if resp.Generation != 9 || resp.Health != "ok" {
		t.Fatalf("served payload wrong: %+v", resp)
	}

	// serve_stats has no client method: it is an operator's raw line.
	stats := dialLines(t, addr)(`{"op":"serve_stats"}`)
	if !stats.OK || stats.Stats == nil || stats.Stats.Served != 1 {
		t.Fatalf("stats reply wrong: %+v", stats)
	}
}

// dialLines opens a raw connection to a plan daemon and returns a
// function that sends one request line and reads its one answer line:
// the way to send what serve.Client does not.
func dialLines(t *testing.T, addr string) func(line string) directory.PlanResponse {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	rd := bufio.NewReader(conn)
	return func(line string) directory.PlanResponse {
		t.Helper()
		if err := conn.SetDeadline(time.Now().Add(2 * time.Second)); err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write([]byte(line + "\n")); err != nil {
			t.Fatal(err)
		}
		out, err := rd.ReadBytes('\n')
		if err != nil {
			t.Fatal(err)
		}
		resp, err := directory.ParsePlanResponse(out)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
}

func TestServerRejectsUnknownOpAndGarbage(t *testing.T) {
	d := newTestDaemon(t, 4, okSource(4), nil, Config{})
	_, addr := startTestServer(t, d, ServerConfig{})
	send := dialLines(t, addr)
	if resp := send(`{"op":"conga"}`); resp.OK || !strings.Contains(resp.Error, "unknown op") {
		t.Fatalf("unknown op: %+v", resp)
	}
	if resp := send(`{]`); resp.OK || resp.Error == "" {
		t.Fatalf("garbage line: %+v", resp)
	}
	// The connection survives bad requests: a valid one still works.
	if resp := send(`{"op":"plan","p":4,"kind":"uniform","bytes":64,"deadline_ms":2000}`); !resp.OK {
		t.Fatalf("valid request after garbage: %+v", resp)
	}
}

// TestServerDrainServesConnectedClient: a client connected when the
// drain starts still gets explicit answers for requests in the drain
// window; once the drain completes, new dials are refused.
func TestServerDrainServesConnectedClient(t *testing.T) {
	d := newTestDaemon(t, 4, okSource(4), nil, Config{DrainTimeout: 100 * time.Millisecond})
	s, addr := startTestServer(t, d, ServerConfig{})
	c, err := Dial(context.Background(), addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if resp, err := c.Plan(context.Background(), directory.PlanRequest{P: 4, Kind: directory.PatternUniform,
		DeadlineMS: 2000}); err != nil || !resp.OK {
		t.Fatalf("pre-drain request failed: %v %+v", err, resp)
	}

	drained := make(chan error)
	go func() { drained <- s.Drain(500 * time.Millisecond) }()

	// Requests racing the drain resolve explicitly: either a served
	// plan (still before the daemon drained), a draining response, or a
	// clean connection teardown once the server finished — never a hang.
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := c.Plan(context.Background(), directory.PlanRequest{P: 4, Kind: directory.PatternUniform,
			DeadlineMS: 200})
		if err != nil {
			break // server wound the connection down; drain is finishing
		}
		if resp.Status != directory.PlanServed && resp.Status != directory.PlanDraining {
			t.Fatalf("mid-drain request resolved as %+v", resp)
		}
		if resp.Status == directory.PlanDraining {
			break
		}
	}
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if _, err := Dial(context.Background(), addr, 200*time.Millisecond); err == nil {
		t.Fatal("dial succeeded after drain")
	}
}

// TestServerDisconnectsSlowClient: a client that drains its socket at
// a trickle cannot hold a serving goroutine hostage — the write
// timeout severs the connection, and the server still winds down
// promptly afterwards.
func TestServerDisconnectsSlowClient(t *testing.T) {
	d := newTestDaemon(t, 4, okSource(4), nil, Config{})
	inj := faults.NewSlowClientInjector(faults.SlowClientConfig{
		ChunkBytes: 1, Pause: 10 * time.Millisecond})
	s, addr := startTestServer(t, d, ServerConfig{
		WriteTimeout: 50 * time.Millisecond,
		WrapConn:     inj.Wrap,
	})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A served response is a few hundred bytes: at 100 B/s it cannot
	// beat a 50ms write timeout, so the server must cut us off.
	if _, err := conn.Write([]byte(`{"op":"plan","p":4,"kind":"uniform","deadline_ms":2000}` + "\n")); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1<<16)
	sawClose := false
	for {
		if _, err := conn.Read(buf); err != nil {
			sawClose = true
			break
		}
	}
	if !sawClose {
		t.Fatal("server kept feeding a slow client")
	}
	if inj.Conns() == 0 {
		t.Fatal("injector never wrapped the connection")
	}
	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server close hung after a slow client")
	}
}

func TestServerCloseIdempotentAndNilSafe(t *testing.T) {
	var s *Server
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Drain(time.Millisecond); err == nil {
		t.Fatal("nil server drain should refuse")
	}
	if s.Addr() != "" {
		t.Fatal("nil server has an address")
	}
	d := newTestDaemon(t, 4, okSource(4), nil, Config{})
	real := NewServer(d, ServerConfig{})
	if _, err := real.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if err := real.Close(); err != nil {
		t.Fatal(err)
	}
	if err := real.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := real.Listen("127.0.0.1:0"); err == nil {
		t.Fatal("closed server accepted a new Listen")
	}
}
