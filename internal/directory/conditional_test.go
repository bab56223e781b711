package directory

import (
	"bufio"
	"context"
	"errors"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"hetsched/internal/calib"
	"hetsched/internal/netmodel"
	"hetsched/internal/obs"
)

// u64 returns a pointer to v, the shape if_version has in a request.
func u64(v uint64) *uint64 { return &v }

// sameRequest compares requests by value: if_version is a pointer so
// that 0 and absent stay distinct, which makes == compare addresses.
func sameRequest(a, b request) bool {
	av, bv := a.IfVersion, b.IfVersion
	a.IfVersion, b.IfVersion = nil, nil
	return a == b && (av == nil) == (bv == nil) && (av == nil || *av == *bv)
}

func TestConditionalSnapshotWireShape(t *testing.T) {
	for _, tc := range []struct {
		req  request
		wire string
	}{
		{request{Op: opSnapshot}, `{"op":"snapshot","src":0,"dst":0}` + "\n"},
		{request{Op: opSnapshot, IfVersion: u64(0)}, `{"op":"snapshot","src":0,"dst":0,"if_version":0}` + "\n"},
		{request{Op: opSnapshot, IfVersion: u64(7)}, `{"op":"snapshot","src":0,"dst":0,"if_version":7}` + "\n"},
	} {
		wire, err := encodeRequest(tc.req)
		if err != nil {
			t.Fatal(err)
		}
		if string(wire) != tc.wire {
			t.Errorf("encoded %+v as %s, want %s", tc.req, wire, tc.wire)
		}
		back, err := parseRequest(wire)
		if err != nil {
			t.Fatal(err)
		}
		if !sameRequest(back, tc.req) {
			t.Errorf("request round trip changed %+v to %+v", tc.req, back)
		}
	}
	// The short form a client of another implementation would send.
	req, err := parseRequest([]byte(`{"op":"snapshot","if_version":0}`))
	if err != nil || req.IfVersion == nil || *req.IfVersion != 0 {
		t.Errorf("if_version 0 must parse as present: %+v, %v", req, err)
	}
	if req, err = parseRequest([]byte(`{"op":"snapshot"}`)); err != nil || req.IfVersion != nil {
		t.Errorf("absent if_version must parse as absent: %+v, %v", req, err)
	}

	wire, err := appendResponse(nil, response{OK: true, Version: 7, NotModified: true})
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"ok":true,"version":7,"not_modified":true}` + "\n"; string(wire) != want {
		t.Errorf("not_modified encoded as %s, want %s", wire, want)
	}
	resp, err := parseResponse(wire)
	if err != nil || !resp.OK || !resp.NotModified || resp.Version != 7 || resp.N != 0 || resp.LatTable != nil {
		t.Errorf("not_modified round trip: %+v, %v", resp, err)
	}
}

func TestStoreSnapshotUnless(t *testing.T) {
	store, err := NewStore(netmodel.Gusto(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if perf, v := store.snapshotUnless(u64(0)); perf != nil || v != 0 {
		t.Errorf("a never-updated store is at version 0: got table %v, version %d", perf != nil, v)
	}
	if perf, v := store.snapshotUnless(u64(3)); perf == nil || v != 0 {
		t.Errorf("another version must get the table: got table %v, version %d", perf != nil, v)
	}
	if applied, _, _ := store.ApplyCalibration([]calib.Update{{Src: 0, Dst: 1, Latency: 1e-3, Bandwidth: 1e6}}); applied != 1 {
		t.Fatal("the update did not apply")
	}
	if perf, v := store.snapshotUnless(u64(0)); perf == nil || v != 1 {
		t.Errorf("after an update version 0 is gone: got table %v, version %d", perf != nil, v)
	}
	if perf, v := store.snapshotUnless(nil); perf == nil || v != 1 {
		t.Errorf("unconditional read must copy: got table %v, version %d", perf != nil, v)
	}
}

// scriptedServer answers the k-th request line on each connection with
// reply(k, request); it stands in for servers this package does not
// ship — one that predates if_version, one whose framing has slipped.
func scriptedServer(t *testing.T, reply func(k int, req request) response) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		conns []net.Conn
	)
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		for _, c := range conns {
			c.Close()
		}
		mu.Unlock()
		wg.Wait()
	})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, conn)
			mu.Unlock()
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer conn.Close()
				sc := bufio.NewScanner(conn)
				for k := 0; sc.Scan(); k++ {
					req, err := parseRequest(sc.Bytes())
					if err != nil {
						return
					}
					out, err := appendResponse(nil, reply(k, req))
					if err != nil {
						return
					}
					if _, err := conn.Write(out); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

func quietConfig() ResilientConfig {
	return ResilientConfig{Retries: 2, BackoffBase: time.Millisecond, Sleep: func(time.Duration) {}}
}

// TestConditionalSnapshotOldServer: a server that ignores if_version
// answers every snapshot in full, which the client must simply accept.
func TestConditionalSnapshotOldServer(t *testing.T) {
	var mu sync.Mutex
	var asked []*uint64
	addr := scriptedServer(t, func(k int, req request) response {
		mu.Lock()
		asked = append(asked, req.IfVersion)
		mu.Unlock()
		return tableResponse(netmodel.Gusto(), netmodel.GustoSites, 4)
	})
	rc := NewResilientClient(addr, quietConfig())
	defer rc.Close()
	src := rc.Source(true)
	for k := 0; k < 3; k++ {
		perf, err := src()
		if err != nil {
			t.Fatalf("fetch %d: %v", k, err)
		}
		if !perf.Equal(netmodel.Gusto()) {
			t.Fatalf("fetch %d returned another table", k)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(asked) != 3 || asked[0] != nil || asked[1] == nil || *asked[1] != 4 || asked[2] == nil || *asked[2] != 4 {
		t.Errorf("if_version sent = %v, want absent, 4, 4", asked)
	}
	if ctr := rc.Counters(); ctr.Unchanged != 0 || ctr.Retries != 0 {
		t.Errorf("full replies must count as plain fetches: %+v", ctr)
	}
}

// TestNotModifiedOutOfTurnBreaksConnection: a not_modified nobody asked
// for, or one that vouches for another version, means the stream is out
// of step. It must surface as ErrUnavailable and poison the connection,
// never be taken for data.
func TestNotModifiedOutOfTurnBreaksConnection(t *testing.T) {
	for _, tc := range []struct {
		name  string
		have  *uint64
		reply response
	}{
		{"unsolicited", nil, response{OK: true, Version: 4, NotModified: true}},
		{"wrong version", u64(4), response{OK: true, Version: 5, NotModified: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			addr := scriptedServer(t, func(int, request) response { return tc.reply })
			cl, err := Dial(addr, time.Second)
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			perf, _, _, err := cl.snapshotUnless(tc.have)
			if !errors.Is(err, ErrUnavailable) || perf != nil {
				t.Fatalf("got table %v, err %v; want ErrUnavailable", perf != nil, err)
			}
			if !cl.Broken() {
				t.Error("connection still trusted after an out-of-turn not_modified")
			}
			if _, err := cl.Version(); !errors.Is(err, ErrBroken) {
				t.Errorf("next call = %v, want ErrBroken", err)
			}
		})
	}
	// Through the resilient client the fault costs a redial, and the
	// fetch on the fresh connection is unconditional.
	var mu sync.Mutex
	var asked []*uint64
	addr := scriptedServer(t, func(k int, req request) response {
		mu.Lock()
		asked = append(asked, req.IfVersion)
		n := len(asked)
		mu.Unlock()
		if n == 2 {
			return response{OK: true, Version: 9, NotModified: true}
		}
		return tableResponse(netmodel.Gusto(), netmodel.GustoSites, 4)
	})
	rc := NewResilientClient(addr, quietConfig())
	defer rc.Close()
	src := rc.Source(true)
	for k := 0; k < 2; k++ {
		if _, err := src(); err != nil {
			t.Fatalf("fetch %d: %v", k, err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(asked) != 3 || asked[0] != nil || asked[1] == nil || asked[2] != nil {
		t.Errorf("if_version sent = %v, want absent, 4, absent (after the redial)", asked)
	}
	if ctr := rc.Counters(); ctr.Reconnects != 1 || ctr.Unchanged != 0 {
		t.Errorf("counters = %+v, want one reconnect and nothing unchanged", ctr)
	}
}

// TestOneTableTransferPerGeneration is the acceptance check: 64 replans
// at one generation move the table once, the other 63 are answered
// not_modified, and both ends count it. A redial forgets the validator;
// an update invalidates it.
func TestOneTableTransferPerGeneration(t *testing.T) {
	store, err := NewStore(netmodel.Gusto(), netmodel.GustoSites)
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
	rc := NewResilientClient(addr, quietConfig())
	defer rc.Close()
	full := func() uint64 {
		return readCounter(t, reg, obs.MetricDirectoryServerRequests, obs.L("op", opSnapshot))
	}
	unchanged := func() uint64 {
		return readCounter(t, reg, obs.MetricDirectoryServerRequests, obs.L("op", countSnapshotUnchanged))
	}

	src := rc.Source(true)
	first, err := src()
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k < 64; k++ {
		perf, err := src()
		if err != nil {
			t.Fatal(err)
		}
		if perf != first {
			t.Fatalf("replan %d got a second copy of an unchanged table", k)
		}
	}
	if full() != 1 || unchanged() != 63 {
		t.Errorf("server sent %d tables and %d not_modified, want 1 and 63", full(), unchanged())
	}
	if ctr := rc.Counters(); ctr.Unchanged != 63 || ctr.Requests != 64 {
		t.Errorf("client counters = %+v, want 64 requests of which 63 unchanged", ctr)
	}

	// Snapshot hands out copies: scribbling on one reaches nobody.
	mine, names, meta, err := rc.Snapshot()
	if err != nil || meta.Stale || meta.Version != 0 {
		t.Fatalf("snapshot: %v (meta %+v)", err, meta)
	}
	mine.Set(0, 1, netmodel.PairPerf{Latency: 9, Bandwidth: 9})
	names[0] = "scribble"
	if !first.Equal(netmodel.Gusto()) {
		t.Error("Snapshot returned the shared table, not a copy")
	}
	if _, again, _, _ := rc.Snapshot(); again[0] != netmodel.GustoSites[0] {
		t.Error("Snapshot returned the shared names, not a copy")
	}
	if full() != 1 {
		t.Errorf("Snapshot on the same connection and generation moved the table again (%d transfers)", full())
	}

	// A forced redial: the validator belonged to the old connection.
	rc.Close()
	before := unchanged()
	if _, err := src(); err != nil {
		t.Fatal(err)
	}
	if full() != 2 || unchanged() != before {
		t.Errorf("first fetch after a redial: %d tables, %d more not_modified; want an unconditional fetch", full(), unchanged()-before)
	}

	// A new generation: one more transfer, then not_modified again.
	if applied, _, _ := store.ApplyCalibration([]calib.Update{{Src: 0, Dst: 1, Latency: 1e-3, Bandwidth: 1e6}}); applied != 1 {
		t.Fatal("the update did not apply")
	}
	want, _ := store.Snapshot()
	for k := 0; k < 64; k++ {
		perf, err := src()
		if err != nil {
			t.Fatal(err)
		}
		if !perf.Equal(want) {
			t.Fatalf("replan %d after the update planned on the old table", k)
		}
	}
	if full() != 3 {
		t.Errorf("64 replans at the new generation moved the table %d times, want 1", full()-2)
	}
}

// TestConditionalSnapshotAcrossRestart: a directory restarted on the
// same address comes back at the same version number over a different
// table. The version the client holds was issued by the old server, so
// the client must not offer it to the new one.
func TestConditionalSnapshotAcrossRestart(t *testing.T) {
	srv, _, addr := startServer(t)
	rc := NewResilientClient(addr, ResilientConfig{Retries: 4, BackoffBase: time.Millisecond, Sleep: func(time.Duration) {}})
	defer rc.Close()
	src := rc.Source(true)
	old, err := src()
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()

	moved := netmodel.Gusto().Scale(3)
	store2, err := NewStore(moved, netmodel.GustoSites)
	if err != nil {
		t.Fatal(err)
	}
	srv2 := NewServer(store2)
	if _, err := srv2.Listen(addr); err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	defer srv2.Close()
	if store2.Version() != 0 {
		t.Fatal("the restarted store should be at version 0 like the first")
	}
	perf, err := src()
	if err != nil {
		t.Fatal(err)
	}
	if perf.Equal(old) || !perf.Equal(moved) {
		t.Error("after the restart the client still plans on the first server's table")
	}
	if ctr := rc.Counters(); ctr.Unchanged != 0 || ctr.Reconnects != 1 {
		t.Errorf("counters = %+v, want one reconnect and no not_modified", ctr)
	}
}

// TestNotModifiedRefreshesStaleAge: a not_modified is the server
// vouching for the held table now, so the stale rung's age counts from
// it; an outage then serves the held table, names included, to
// Snapshot and to a non-strict source, while a strict source fails.
func TestNotModifiedRefreshesStaleAge(t *testing.T) {
	srv, _, addr := startServer(t)
	now := time.Unix(1000, 0)
	var mu sync.Mutex
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	advance := func(d time.Duration) { mu.Lock(); now = now.Add(d); mu.Unlock() }
	cfg := quietConfig()
	cfg.Clock = clock
	rc := NewResilientClient(addr, cfg)
	defer rc.Close()
	strict, lenient := rc.Source(true), rc.Source(false)
	held, err := strict() // the table arrives at t=1000 ...
	if err != nil {
		t.Fatal(err)
	}
	advance(50 * time.Second)
	if _, err := strict(); err != nil { // ... and is vouched for at t=1050
		t.Fatal(err)
	}
	if rc.Counters().Unchanged != 1 {
		t.Fatalf("second fetch was not answered not_modified: %+v", rc.Counters())
	}
	srv.Close()
	advance(20 * time.Second)
	perf, names, meta, err := rc.Snapshot()
	if err != nil {
		t.Fatalf("stale snapshot: %v", err)
	}
	if !meta.Stale || meta.Age != 20*time.Second {
		t.Errorf("meta = %+v, want stale with age 20s (since the not_modified, not since the transfer)", meta)
	}
	if !perf.Equal(held) || names[0] != netmodel.GustoSites[0] {
		t.Error("stale snapshot is not the held table with its names")
	}
	if got, err := lenient(); err != nil || got != held {
		t.Errorf("non-strict source during the outage: table %p, err %v; want the held table %p", got, err, held)
	}
	if _, err := strict(); !errors.Is(err, ErrUnavailable) {
		t.Errorf("strict source during the outage = %v, want ErrUnavailable", err)
	}
}

// TestConditionalSnapshotCoherence races whole-table writers against
// readers sharing one resilient client. Every table a reader is handed
// must be, bit for bit, the table the store held at the version the
// reply named — whether it arrived in that reply or was held from an
// earlier one and vouched for by a not_modified.
func TestConditionalSnapshotCoherence(t *testing.T) {
	base := netmodel.Gusto()
	store, err := NewStore(base, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(store)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	rc := NewResilientClient(addr, quietConfig())
	defer rc.Close()

	writers, updates, readers, reads := 3, 40, 4, 150
	if testing.Short() {
		updates, reads = 15, 60
	}
	var histMu sync.Mutex
	history := map[uint64]*netmodel.Perf{0: base}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w + 1)))
			for k := 0; k < updates; k++ {
				table := base.Scale(0.5 + rng.Float64())
				v, err := store.Update(table)
				if err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
				histMu.Lock()
				history[v] = table
				histMu.Unlock()
				time.Sleep(200 * time.Microsecond)
			}
		}(w)
	}
	type seen struct {
		version uint64
		perf    *netmodel.Perf
	}
	got := make([][]seen, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for k := 0; k < reads; k++ {
				h, err := rc.fetch(context.Background())
				if err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
				got[r] = append(got[r], seen{h.version, h.perf})
			}
		}(r)
	}
	wg.Wait()

	for r, list := range got {
		var last uint64
		for k, s := range list {
			want := history[s.version]
			if want == nil {
				t.Fatalf("reader %d fetch %d: version %d was never written", r, k, s.version)
			}
			if !s.perf.Equal(want) {
				t.Fatalf("reader %d fetch %d: table is not the store's table at version %d", r, k, s.version)
			}
			if s.version < last {
				t.Fatalf("reader %d fetch %d: version went back from %d to %d", r, k, last, s.version)
			}
			last = s.version
		}
	}
	ctr := rc.Counters()
	if ctr.Unchanged == 0 || ctr.Unchanged == ctr.Requests {
		t.Errorf("the race exercised only one kind of reply: %+v", ctr)
	}
}
