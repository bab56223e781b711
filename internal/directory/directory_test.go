package directory

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"hetsched/internal/calib"
	"hetsched/internal/netmodel"
)

func newTestStore(t *testing.T) *Store {
	t.Helper()
	s, err := NewStore(netmodel.Gusto(), netmodel.GustoSites)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewStoreValidation(t *testing.T) {
	if _, err := NewStore(nil, nil); err == nil {
		t.Error("nil table accepted")
	}
	bad := netmodel.NewPerf(3) // zero bandwidths are invalid
	if _, err := NewStore(bad, nil); err == nil {
		t.Error("invalid table accepted")
	}
	if _, err := NewStore(netmodel.Gusto(), []string{"too", "few"}); err == nil {
		t.Error("name count mismatch accepted")
	}
	s, err := NewStore(netmodel.Gusto(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Names()[3] != "P3" {
		t.Error("auto names wrong")
	}
}

func TestStoreQuerySnapshotVersion(t *testing.T) {
	s := newTestStore(t)
	if s.N() != 5 || s.Version() != 0 {
		t.Fatal("fresh store state wrong")
	}
	pp, v, err := s.Query(0, 3)
	if err != nil || v != 0 {
		t.Fatalf("Query: %v v=%d", err, v)
	}
	if netmodel.SecondsToMs(pp.Latency) != 12 {
		t.Errorf("latency = %g ms", netmodel.SecondsToMs(pp.Latency))
	}
	if _, _, err := s.Query(0, 9); err == nil {
		t.Error("out-of-range query accepted")
	}
	snap, v := s.Snapshot()
	if v != 0 || snap.N() != 5 {
		t.Error("snapshot wrong")
	}
	snap.Set(0, 1, netmodel.PairPerf{Latency: 1, Bandwidth: 1})
	if pp, _, _ := s.Query(0, 1); pp.Latency == 1 {
		t.Error("snapshot leaked internal state")
	}
}

func TestStoreUpdates(t *testing.T) {
	s := newTestStore(t)
	applied, rejected, v := s.ApplyCalibration([]calib.Update{{Src: 0, Dst: 1, Latency: 0.5, Bandwidth: 100}})
	if applied != 1 || rejected != 0 || v != 1 {
		t.Fatalf("ApplyCalibration: applied %d rejected %d v=%d", applied, rejected, v)
	}
	pp, v2, _ := s.Query(0, 1)
	if pp.Latency != 0.5 || v2 != 1 {
		t.Error("update not visible")
	}
	bad := []calib.Update{
		{Src: 1, Dst: 1, Latency: 0.5, Bandwidth: 100}, // diagonal
		{Src: 0, Dst: 1, Latency: -1, Bandwidth: 100},  // invalid perf
	}
	if applied, rejected, v := s.ApplyCalibration(bad); applied != 0 || rejected != 2 || v != 1 {
		t.Errorf("bad updates: applied %d rejected %d v=%d; want 0, 2, 1", applied, rejected, v)
	}
	if _, err := s.Update(netmodel.NewPerf(3).Scale(1)); err == nil {
		t.Error("size-mismatched full update accepted")
	}
	full := netmodel.Gusto().Scale(2)
	v3, err := s.Update(full)
	if err != nil || v3 != 2 {
		t.Fatalf("full update: %v v=%d", err, v3)
	}
}

func TestStoreConcurrentAccess(t *testing.T) {
	s := newTestStore(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 200; k++ {
				switch k % 3 {
				case 0:
					s.Snapshot()
				case 1:
					s.Query(g%5, (g+1)%5)
				default:
					s.ApplyCalibration([]calib.Update{{Src: g % 5, Dst: (g + 2) % 5, Latency: 0.01, Bandwidth: 1000}})
				}
			}
		}(g)
	}
	wg.Wait()
	if s.Version() == 0 {
		t.Error("no updates recorded")
	}
}

func TestServerClientEndToEnd(t *testing.T) {
	s := newTestStore(t)
	srv := NewServer(s)
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

	pp, v, err := cl.Query(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0 || netmodel.SecondsToMs(pp.Latency) != 12 {
		t.Errorf("query over wire: v=%d lat=%g", v, pp.Latency)
	}

	perf, names, v, err := cl.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if perf.N() != 5 || names[0] != "AMES" || v != 0 {
		t.Errorf("snapshot over wire: n=%d names=%v v=%d", perf.N(), names, v)
	}
	if perf.At(3, 4) != netmodel.Gusto().At(3, 4) {
		t.Error("snapshot values corrupted in transit")
	}

	applied, _, nv, err := cl.Calibrate([]calib.Update{{Src: 0, Dst: 1, Latency: 0.042, Bandwidth: 4242}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if applied != 1 || nv != 1 {
		t.Errorf("update applied %d, version %d", applied, nv)
	}
	pp, _, err = cl.Query(0, 1)
	if err != nil || pp.Bandwidth != 4242 {
		t.Errorf("update not visible over wire: %+v %v", pp, err)
	}
	gv, err := cl.Version()
	if err != nil || gv != 1 {
		t.Errorf("version over wire = %d, %v", gv, err)
	}
}

func TestServerRejectsBadRequests(t *testing.T) {
	s := newTestStore(t)
	srv := NewServer(s)
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
	if _, _, err := cl.Query(0, 99); err == nil {
		t.Error("bad query accepted over wire")
	}
	// The connection must survive the error.
	if _, _, err := cl.Query(0, 1); err != nil {
		t.Errorf("connection broken after error: %v", err)
	}
	if applied, rejected, _, err := cl.Calibrate([]calib.Update{{Src: 2, Dst: 2, Latency: 1, Bandwidth: 1}}, nil); err != nil || applied != 0 || rejected != 1 {
		t.Errorf("diagonal update over wire: applied %d rejected %d, %v", applied, rejected, err)
	}
}

func TestServerConcurrentClients(t *testing.T) {
	s := newTestStore(t)
	srv := NewServer(s)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 6)
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cl, err := Dial(addr, time.Second)
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			for k := 0; k < 50; k++ {
				if _, _, err := cl.Query(g%5, (g+1)%5); err != nil {
					errs <- err
					return
				}
			}
			if _, _, _, err := cl.Snapshot(); err != nil {
				errs <- err
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	srv := NewServer(newTestStore(t))
	if _, err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestClientDialFailure(t *testing.T) {
	if _, err := Dial("127.0.0.1:1", 50*time.Millisecond); err == nil {
		t.Error("dial to closed port succeeded")
	}
}

func TestFeederTick(t *testing.T) {
	s := newTestStore(t)
	f := NewFeeder(s, rand.New(rand.NewSource(1)), netmodel.DefaultDrift())
	base, v0 := s.Snapshot()
	v, err := f.Tick()
	if err != nil || v != v0+1 {
		t.Fatalf("Tick: %v v=%d", err, v)
	}
	cur, _ := s.Snapshot()
	changed := false
	for i := 0; i < 5 && !changed; i++ {
		for j := 0; j < 5; j++ {
			if i != j && cur.At(i, j) != base.At(i, j) {
				changed = true
				break
			}
		}
	}
	if !changed {
		t.Error("tick did not change the table")
	}
}

func TestFeederRun(t *testing.T) {
	s := newTestStore(t)
	f := NewFeeder(s, rand.New(rand.NewSource(2)), netmodel.DefaultDrift())
	if err := f.Run(0, nil); err == nil {
		t.Error("non-positive interval accepted")
	}
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() { done <- f.Run(2*time.Millisecond, stop) }()
	time.Sleep(20 * time.Millisecond)
	close(stop)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if s.Version() == 0 {
		t.Error("feeder never published")
	}
}
