package directory

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"hetsched/internal/calib"
	"hetsched/internal/faults"
	"hetsched/internal/netmodel"
)

// startServer spins up a server over a fresh GUSTO store.
func startServer(t *testing.T) (*Server, *Store, string) {
	t.Helper()
	store, err := NewStore(netmodel.Gusto(), netmodel.GustoSites)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(store)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return srv, store, addr
}

func TestClientBrokenAfterTransportError(t *testing.T) {
	srv, _, addr := startServer(t)
	cl, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, _, err := cl.Query(0, 1); err != nil {
		t.Fatal(err)
	}
	// Kill the server: the in-flight call fails with ErrUnavailable...
	srv.Close()
	_, _, err = cl.Query(0, 1)
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("first failure = %v, want ErrUnavailable", err)
	}
	// ...and every later call fails fast with the ErrBroken sentinel.
	for k := 0; k < 3; k++ {
		if _, _, err := cl.Query(0, 1); !errors.Is(err, ErrBroken) {
			t.Fatalf("call %d after break = %v, want ErrBroken", k, err)
		}
	}
	if !cl.Broken() {
		t.Error("Broken() = false after transport error")
	}
}

func TestClientServerErrorDoesNotBreak(t *testing.T) {
	srv, _, addr := startServer(t)
	defer srv.Close()
	cl, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	_, _, err = cl.Query(0, 99)
	if err == nil || errors.Is(err, ErrUnavailable) || errors.Is(err, ErrBroken) {
		t.Fatalf("server-reported error misclassified: %v", err)
	}
	if cl.Broken() {
		t.Error("server-side error broke the connection")
	}
	if _, _, err := cl.Query(0, 1); err != nil {
		t.Errorf("connection unusable after server error: %v", err)
	}
}

func TestClientRequestTimeout(t *testing.T) {
	// A listener that accepts and never answers: the per-request
	// deadline must fail the call instead of hanging forever.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			defer c.Close()
			_ = c // swallow the request, never reply
		}
	}()
	cl, err := Dial(ln.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.SetRequestTimeout(50 * time.Millisecond)
	start := time.Now()
	_, _, err = cl.Query(0, 1)
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("timed-out call = %v, want ErrUnavailable", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Error("request deadline did not bound the call")
	}
	if !cl.Broken() {
		t.Error("timeout should break the connection")
	}
}

func TestServerIdleTimeout(t *testing.T) {
	store, err := NewStore(netmodel.Gusto(), nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(store)
	srv.SetIdleTimeout(50 * time.Millisecond)
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
	// Active connections survive...
	if _, _, err := cl.Query(0, 1); err != nil {
		t.Fatal(err)
	}
	// ...idle ones are dropped by the server.
	time.Sleep(200 * time.Millisecond)
	if _, _, err := cl.Query(0, 1); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("call on idle-dropped conn = %v, want ErrUnavailable", err)
	}
}

func TestResilientRetriesThroughReconnect(t *testing.T) {
	store, err := NewStore(netmodel.Gusto(), netmodel.GustoSites)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(store)
	var mu sync.Mutex
	var accepted []net.Conn
	srv.SetConnWrapper(func(c net.Conn) net.Conn {
		mu.Lock()
		defer mu.Unlock()
		accepted = append(accepted, c)
		return c
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	rc := NewResilientClient(addr, ResilientConfig{
		Retries:     4,
		BackoffBase: time.Millisecond,
		Sleep:       func(time.Duration) {},
	})
	defer rc.Close()
	if _, _, meta, err := rc.Snapshot(); err != nil || meta.Stale {
		t.Fatalf("first snapshot: %v (meta %+v)", err, meta)
	}
	// Sever every live server connection; the pooled client is now
	// broken and the next call must reconnect transparently.
	mu.Lock()
	for _, c := range accepted {
		c.Close()
	}
	mu.Unlock()
	if _, meta, err := rc.Query(0, 1); err != nil || meta.Stale {
		t.Fatalf("query after severed conn: %v (meta %+v)", err, meta)
	}
	if ctr := rc.Counters(); ctr.Reconnects == 0 && ctr.Retries == 0 {
		t.Errorf("no resilience machinery engaged: %+v", ctr)
	}
	// Server-reported errors pass through without burning retries.
	before := rc.Counters().Retries
	if _, _, err := rc.Query(0, 99); err == nil {
		t.Error("out-of-range query accepted")
	}
	if after := rc.Counters().Retries; after != before {
		t.Errorf("server error consumed %d retries", after-before)
	}
	// Writes reach the store.
	if _, _, _, err := rc.Calibrate([]calib.Update{{Src: 0, Dst: 1, Latency: 0.01, Bandwidth: 1000}}, nil); err != nil {
		t.Fatal(err)
	}
	if v := store.Version(); v == 0 {
		t.Error("write never reached the store")
	}
}

func TestResilientServesStaleSnapshotWithAge(t *testing.T) {
	srv, _, addr := startServer(t)
	now := time.Unix(1000, 0)
	var mu sync.Mutex
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	advance := func(d time.Duration) { mu.Lock(); now = now.Add(d); mu.Unlock() }
	rc := NewResilientClient(addr, ResilientConfig{
		Retries:     2,
		BackoffBase: time.Millisecond,
		Clock:       clock,
		Sleep:       func(time.Duration) {},
	})
	defer rc.Close()
	perf, names, meta, err := rc.Snapshot()
	if err != nil || meta.Stale {
		t.Fatalf("live snapshot: %v (meta %+v)", err, meta)
	}
	if names[0] != "AMES" {
		t.Fatalf("names = %v", names)
	}
	// Kill the server for good: snapshots degrade to the cache, marked
	// stale with a growing age.
	srv.Close()
	advance(10 * time.Second)
	p2, n2, meta2, err := rc.Snapshot()
	if err != nil {
		t.Fatalf("stale snapshot: %v", err)
	}
	if !meta2.Stale || meta2.Age != 10*time.Second {
		t.Errorf("meta = %+v, want stale age 10s", meta2)
	}
	if p2.N() != perf.N() || n2[0] != "AMES" || meta2.Version != meta.Version {
		t.Error("stale snapshot does not match the cached data")
	}
	// Queries degrade to the cached pair.
	pp, metaQ, err := rc.Query(0, 3)
	if err != nil || !metaQ.Stale {
		t.Fatalf("stale query: %v (meta %+v)", err, metaQ)
	}
	if pp != perf.At(0, 3) {
		t.Errorf("stale pair = %+v", pp)
	}
	// Writes must NOT silently degrade.
	if _, _, _, err := rc.Calibrate([]calib.Update{{Src: 0, Dst: 1, Latency: 0.01, Bandwidth: 1000}}, nil); !errors.Is(err, ErrUnavailable) {
		t.Errorf("write against dead server = %v, want ErrUnavailable", err)
	}
	// The cache serves at any age; the age tells the caller how stale.
	advance(time.Hour)
	if _, _, meta3, err := rc.Snapshot(); err != nil || !meta3.Stale || meta3.Age != time.Hour+10*time.Second {
		t.Errorf("hour-old snapshot: err %v, meta %+v; want stale with age 1h0m10s", err, meta3)
	}
	if ctr := rc.Counters(); ctr.StaleServes != 3 {
		t.Errorf("stale serves = %d, want 3", ctr.StaleServes)
	}
}

// TestChaosResilientUnderConnFaults is the directory rung of the chaos
// suite: every server connection misbehaves (drops, stalls, torn
// writes) on a fixed seed, and concurrent resilient clients must still
// complete all their reads and writes. Run under -race.
func TestChaosResilientUnderConnFaults(t *testing.T) {
	store, err := NewStore(netmodel.Gusto(), netmodel.GustoSites)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(store)
	inj := faults.NewConnInjector(faults.ConnConfig{
		Seed:        42,
		DropProb:    0.05,
		PartialProb: 0.05,
		StallProb:   0.1,
		Stall:       time.Millisecond,
	})
	srv.SetConnWrapper(inj.Wrap)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	clients, iters := 4, 25
	if testing.Short() {
		clients, iters = 3, 12
	}
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rc := NewResilientClient(addr, ResilientConfig{
				Retries:        8,
				BackoffBase:    time.Millisecond,
				BackoffMax:     8 * time.Millisecond,
				RequestTimeout: time.Second,
				Seed:           int64(g + 1),
			})
			defer rc.Close()
			for k := 0; k < iters; k++ {
				perf, _, _, err := rc.Snapshot()
				if err != nil {
					t.Errorf("client %d iter %d snapshot: %v", g, k, err)
					return
				}
				if err := perf.Validate(); err != nil {
					t.Errorf("client %d iter %d: torn snapshot: %v", g, k, err)
					return
				}
				src, dst := g%5, (g+k)%5
				if src == dst {
					dst = (dst + 1) % 5
				}
				if _, _, err := rc.Query(src, dst); err != nil {
					t.Errorf("client %d iter %d query: %v", g, k, err)
					return
				}
				pp := perf.At(src, dst)
				up := calib.Update{Src: src, Dst: dst, Latency: pp.Latency, Bandwidth: pp.Bandwidth * 1.01}
				if _, _, _, err := rc.Calibrate([]calib.Update{up}, nil); err != nil {
					t.Errorf("client %d iter %d update: %v", g, k, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if c := inj.Counts(); c.Drops+c.Partials == 0 {
		t.Logf("warning: injector never fired (counts %+v)", c)
	} else {
		t.Logf("chaos counts: %+v", c)
	}
	if store.Version() == 0 {
		t.Error("no write survived the chaos")
	}
}
