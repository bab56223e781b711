package directory

import (
	"errors"
	"strings"
	"testing"
	"time"

	"hetsched/internal/calib"
	"hetsched/internal/netmodel"
)

func TestStoreApplyCalibration(t *testing.T) {
	s := newTestStore(t)
	updates := []calib.Update{
		{Src: 0, Dst: 1, Latency: 0.002, Bandwidth: 5e5, Confidence: 0.9, Samples: 10},
		{Src: 1, Dst: 0, Latency: 0.003, Bandwidth: 4e5, Confidence: 0.8, Samples: 8},
		{Src: 2, Dst: 2, Latency: 0.001, Bandwidth: 1e6},  // diagonal
		{Src: 0, Dst: 99, Latency: 0.001, Bandwidth: 1e6}, // out of range
		{Src: 0, Dst: 2, Latency: -1, Bandwidth: 1e6},     // negative latency
		{Src: 0, Dst: 3, Latency: 0.001, Bandwidth: 0},    // zero bandwidth
	}
	applied, rejected, v := s.ApplyCalibration(updates)
	if applied != 2 || rejected != 4 {
		t.Fatalf("applied=%d rejected=%d, want 2/4", applied, rejected)
	}
	if v != 1 || s.Version() != 1 {
		t.Fatalf("batch must bump the version exactly once, got %d", v)
	}
	if pp, _, _ := s.Query(0, 1); pp.Latency != 0.002 || pp.Bandwidth != 5e5 {
		t.Errorf("accepted update not visible: %+v", pp)
	}
	if pp, _, _ := s.Query(0, 3); pp.Bandwidth == 0 {
		t.Error("rejected update poisoned the table")
	}

	// A fully rejected batch must be invisible: no version bump.
	applied, rejected, v = s.ApplyCalibration([]calib.Update{{Src: 4, Dst: 4, Latency: 1, Bandwidth: 1}})
	if applied != 0 || rejected != 1 || v != 1 {
		t.Fatalf("fully rejected batch: applied=%d rejected=%d v=%d", applied, rejected, v)
	}
	if _, _, v := s.ApplyCalibration(nil); v != 1 {
		t.Fatal("empty batch bumped the version")
	}
}

func TestCalibrateEndToEnd(t *testing.T) {
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

	applied, rejected, v, err := cl.Calibrate([]calib.Update{
		{Src: 0, Dst: 1, Latency: 0.002, Bandwidth: 5e5, Confidence: 0.9},
		{Src: 0, Dst: 0, Latency: 0.002, Bandwidth: 5e5}, // diagonal, rejected
	}, nil)
	if err != nil || applied != 1 || rejected != 1 || v != 1 {
		t.Fatalf("Calibrate: applied=%d rejected=%d v=%d err=%v", applied, rejected, v, err)
	}
	if pp, _, _ := cl.Query(0, 1); pp.Bandwidth != 5e5 {
		t.Errorf("calibrated pair not visible over wire: %+v", pp)
	}

	// Samples on a server with no calibrator are counted, not errors.
	applied, rejected, v, err = cl.Calibrate(nil, []calib.Sample{
		{Src: 0, Dst: 1, Bytes: 4096, Seconds: 0.05, Outcome: calib.OutcomeDelivered},
	})
	if err != nil || applied != 0 || rejected != 1 || v != 1 {
		t.Fatalf("sample push without calibrator: applied=%d rejected=%d v=%d err=%v", applied, rejected, v, err)
	}
}

func TestServerSideCalibrator(t *testing.T) {
	// A uniform prior in the right ballpark (the calibrator's prior
	// anchors deliberately shrink estimates toward it, so a prior that
	// is orders of magnitude wrong takes many more batches to escape).
	base := netmodel.NewPerf(4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if i != j {
				base.Set(i, j, netmodel.PairPerf{Latency: 5e-3, Bandwidth: 4e5})
			}
		}
	}
	s, err := NewStore(base, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(s)
	prior, _ := s.Snapshot()
	cal, err := calib.New(prior, calib.Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv.SetCalibrator(cal)
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

	// The real link (0,1) runs at 1 MB/s with 1 ms start-up — push
	// enough clean measured batches for the server-side fitter to trust
	// the pair and fold its estimate into the store.
	const lat, bw = 1e-3, 1e6
	var applied int
	for batch := 0; batch < 8; batch++ {
		var samples []calib.Sample
		for k := 0; k < 6; k++ {
			bytes := int64(16384 + 8192*k + 512*batch)
			samples = append(samples, calib.Sample{
				Src: 0, Dst: 1, Bytes: bytes,
				Seconds: lat + float64(bytes)/bw,
				Outcome: calib.OutcomeDelivered,
			})
		}
		a, _, _, err := cl.Calibrate(nil, samples)
		if err != nil {
			t.Fatal(err)
		}
		applied += a
	}
	if applied == 0 {
		t.Fatal("server-side calibrator never folded an estimate into the store")
	}
	pp, _, _ := s.Query(0, 1)
	mid := int64(32768)
	got := pp.TransferTime(mid)
	want := lat + float64(mid)/bw
	if got > want*1.25 || got < want*0.75 {
		t.Errorf("fitted transfer time %.6fs too far from truth %.6fs (store has %+v)", got, want, pp)
	}
}

func TestResilientCalibrate(t *testing.T) {
	s := newTestStore(t)
	srv := NewServer(s)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rc := NewResilientClient(addr, ResilientConfig{
		Retries: 2, Sleep: func(time.Duration) {},
	})
	defer rc.Close()

	applied, rejected, v, err := rc.Calibrate([]calib.Update{
		{Src: 1, Dst: 2, Latency: 0.004, Bandwidth: 2e5, Confidence: 0.7},
	}, nil)
	if err != nil || applied != 1 || rejected != 0 || v != 1 {
		t.Fatalf("resilient Calibrate: applied=%d rejected=%d v=%d err=%v", applied, rejected, v, err)
	}

	// Writes never degrade: with the server gone the push must fail.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := rc.Calibrate([]calib.Update{{Src: 0, Dst: 1, Latency: 0.001, Bandwidth: 1e6}}, nil); err == nil {
		t.Fatal("calibration push succeeded against a dead server")
	}

	// The sink adapter treats empty batches as a no-op, even nil-built.
	if err := CalibrateSink(nil)(nil); err != nil {
		t.Fatalf("empty sink push: %v", err)
	}
	if err := CalibrateSink(rc)(nil); err != nil {
		t.Fatalf("empty sink push against dead server: %v", err)
	}
	if err := CalibrateSink(rc)([]calib.Update{{Src: 0, Dst: 1, Latency: 0.001, Bandwidth: 1e6}}); err == nil {
		t.Fatal("sink push against dead server must fail")
	}
}

// TestClientSnapshotValidation drives the client against a hand-rolled
// server that answers with a well-formed frame holding a physically
// meaningless table: the trust boundary must refuse it.
func TestClientSnapshotValidation(t *testing.T) {
	// A 2×2 snapshot whose off-diagonal bandwidth is zero.
	addr := scriptedServer(t, func(int, request) response {
		return response{OK: true, Version: 3, N: 2, Names: []string{"a", "b"},
			LatTable: [][]float64{{0, 0.01}, {0.01, 0}},
			BWTable:  [][]float64{{0, 0}, {0, 0}}}
	})
	cl, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	_, _, _, err = cl.Snapshot()
	if err == nil {
		t.Fatal("snapshot with zero bandwidths accepted")
	}
	if !strings.Contains(err.Error(), "validation") || !errors.Is(err, netmodel.ErrPerfBounds) {
		t.Fatalf("error must identify the bounds boundary: %v", err)
	}
}
