package serve

import (
	"bytes"
	"context"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hetsched/internal/directory"
	"hetsched/internal/leakcheck"
	"hetsched/internal/netmodel"
)

// TestDrainReturnsBehindStalledReader: a client that pipelines requests
// and never reads leaves a serving goroutine blocked in Write. Drain
// must still return about when its grace says, with every goroutine
// joined — for both daemons, since both sit on the same wire.Server.
func TestDrainReturnsBehindStalledReader(t *testing.T) {
	type server interface {
		Listen(string) (string, error)
		Drain(time.Duration) error
	}
	// A small kernel send buffer makes the stall arrive after kilobytes
	// rather than megabytes; it changes nothing else.
	smallBuffer := func(c net.Conn) net.Conn {
		if tc, ok := c.(*net.TCPConn); ok {
			if err := tc.SetWriteBuffer(4096); err != nil {
				t.Error(err)
			}
		}
		return c
	}
	for _, tc := range []struct {
		name    string
		start   func(t *testing.T) server
		request string
	}{
		{"directory", func(t *testing.T) server {
			store, err := directory.NewStore(perfTable(50), nil)
			if err != nil {
				t.Fatal(err)
			}
			s := directory.NewServer(store)
			s.SetConnWrapper(smallBuffer)
			return s
		}, `{"op":"snapshot"}`},
		{"serve", func(t *testing.T) server {
			d := newTestDaemon(t, 4, okSource(4), nil, Config{})
			return NewServer(d, ServerConfig{WrapConn: smallBuffer})
		}, `{"op":"serve_stats"}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			leakcheck.Check(t, func() {
				s := tc.start(t)
				addr, err := s.Listen("127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				conn, err := net.Dial("tcp", addr)
				if err != nil {
					t.Fatal(err)
				}
				defer conn.Close()
				if err := conn.(*net.TCPConn).SetReadBuffer(4096); err != nil {
					t.Fatal(err)
				}
				wrote := make(chan struct{})
				go func() {
					defer close(wrote)
					// The write ends when everything is queued or when the
					// server hangs up; either is fine.
					conn.Write(bytes.Repeat([]byte(tc.request+"\n"), 2000))
				}()
				time.Sleep(200 * time.Millisecond) // let the server fill the pipe and block

				start := time.Now()
				done := make(chan error, 1)
				go func() { done <- s.Drain(100 * time.Millisecond) }()
				select {
				case err := <-done:
					if err != nil {
						t.Errorf("drain: %v", err)
					}
					if took := time.Since(start); took > time.Second {
						t.Errorf("Drain(100ms) took %v", took)
					}
				case <-time.After(3 * time.Second):
					t.Error("Drain(100ms) still blocked after 3s behind a reader that never reads")
					conn.Close() // release the blocked write so the goroutines can be joined
					<-done
				}
				conn.Close()
				<-wrote
			})
		})
	}
}

// TestClientPoisonedAfterTimeout: once a round trip has timed out the
// client cannot read an answer any more, so it must stop asking — a
// later Plan fails without a byte reaching the daemon.
func TestClientPoisonedAfterTimeout(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var received atomic.Int64
	served := make(chan struct{})
	go func() { // accepts one connection, reads everything, answers nothing
		defer close(served)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		buf := make([]byte, 4096)
		for {
			n, err := conn.Read(buf)
			received.Add(int64(n))
			if err != nil {
				return
			}
		}
	}()

	c, err := Dial(context.Background(), ln.Addr().String(), 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	req := directory.PlanRequest{P: 4, Kind: directory.PatternUniform, Bytes: 64}
	if _, err := c.Plan(context.Background(), req); err == nil {
		t.Fatal("a plan nobody answered succeeded")
	}
	waitFor(t, "the first request to arrive", func() bool { return received.Load() > 0 })
	first := received.Load()
	for i := 0; i < 3; i++ {
		start := time.Now()
		if _, err := c.Plan(context.Background(), req); err == nil || err.Error() != "serve: connection broken" {
			t.Fatalf("plan on a timed-out client = %v, want serve: connection broken", err)
		}
		if took := time.Since(start); took > 40*time.Millisecond {
			t.Errorf("a broken client took %v to say so", took)
		}
	}
	c.Close() // the server now reads EOF: everything sent has been counted
	<-served
	if got := received.Load(); got != first {
		t.Errorf("the daemon received %d more bytes after the timeout", got-first)
	}
}

// TestClientSharedByGoroutines: one Client is safe to share. Its
// request buffer belongs to one round trip at a time, so callers that
// overlap must each have sent their own table, whole: every one of them
// gets the plan for the matrix it described, under its own ID.
func TestClientSharedByGoroutines(t *testing.T) {
	const n, callers, rounds = 8, 6, 20
	d := newTestDaemon(t, n, okSource(n), nil, Config{})
	_, addr := startTestServer(t, d, ServerConfig{})
	c, err := Dial(context.Background(), addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Tables of different widths on the wire: a line written over
			// another's buffer would not even parse.
			rows := explicitTable(n, int64(g))
			rows[0][1] <<= uint(4 * g)
			req := directory.PlanRequest{ID: uint64(g + 1), Sizes: rows, DeadlineMS: 2000}
			want := d.Plan(context.Background(), req)
			for i := 0; i < rounds; i++ {
				resp, err := c.Plan(context.Background(), req)
				if err != nil || !resp.OK || resp.ID != req.ID || resp.TMax != want.TMax {
					t.Errorf("caller %d round %d: %+v, %v; want the plan with t_max %v", g, i, resp, err, want.TMax)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// Allocations per round trip, both ends counted. The plan pin was
// measured at the commit that gave plan requests a hand codec and
// digest-first admission (PR 24; its parent f0d3f4d reads 22 for the
// spec hit and 380 for the table hit), the version pin at the commit
// before internal/wire existed (7091420). The plan pin fell from 11 to
// 10 when wire.EncodeLine stopped appending the newline to
// json.Marshal's result, which reallocated whenever the JSON was exactly
// a malloc size class long, as this test's plan answers are. It fell
// from 10 to 0 when plan responses got the request's hand codec
// (directory.AppendPlanResponse, ParsePlanResponse's fast decoder) and
// wire.Server began handing each handler its connection's response
// buffer: all 10 were encoding/json's, 8 reading the answer and 2
// writing it. The version pin fell from 15 to 14 with that buffer: the
// directory answers into it instead of copying its line out of
// EncodeLine's scratch.
const (
	planHitAllocs = 0
	versionAllocs = 14
)

// TestWireRoundTripAllocs pins what one request costs on the shared
// line server and client, both ends counted (AllocsPerRun counts every
// goroutine's mallocs): a plan-cache hit through serve.Client — as a
// 100-byte spec and as an explicit 50×50 table, which costs what the
// spec costs because the server keys the table's text and decodes none
// of it — and a version probe through directory.Client, over loopback.
// bench/'s allocs_per_op bound is 2 % of ~27, so one more allocation
// per round trip fails it.
func TestWireRoundTripAllocs(t *testing.T) {
	if leakcheck.RaceEnabled {
		t.Skip("race detector instruments allocations")
	}
	for _, tc := range []struct {
		name string
		n    int
		req  directory.PlanRequest
		want float64
	}{
		{"spec", 4, directory.PlanRequest{P: 4, Kind: directory.PatternUniform, Bytes: 2048, DeadlineMS: 2000}, planHitAllocs},
		{"table", 50, directory.PlanRequest{Sizes: explicitTable(50, 1), DeadlineMS: 2000}, planHitAllocs},
	} {
		d := newTestDaemon(t, tc.n, okSource(tc.n), func() (uint64, error) { return 9, nil }, Config{})
		_, addr := startTestServer(t, d, ServerConfig{})
		pc, err := Dial(context.Background(), addr, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer pc.Close()
		plan := func() {
			resp, err := pc.Plan(context.Background(), tc.req)
			if err != nil || !resp.OK {
				t.Fatalf("plan: %v %+v", err, resp)
			}
		}
		plan() // the miss that fills the cache
		if got := testing.AllocsPerRun(200, plan); got != tc.want {
			t.Errorf("serve.Client.Plan cache hit (%s): %v allocs per round trip, want %v", tc.name, got, tc.want)
		}
	}

	store, err := directory.NewStore(netmodel.Gusto(), netmodel.GustoSites)
	if err != nil {
		t.Fatal(err)
	}
	ds := directory.NewServer(store)
	daddr, err := ds.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	dc, err := directory.Dial(daddr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer dc.Close()
	dc.SetRequestTimeout(time.Second)
	version := func() {
		if _, err := dc.Version(); err != nil {
			t.Fatalf("version: %v", err)
		}
	}
	version()
	if got := testing.AllocsPerRun(200, version); got != versionAllocs {
		t.Errorf("directory.Client.Version: %v allocs per round trip, want %v", got, versionAllocs)
	}
}
