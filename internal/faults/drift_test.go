package faults

import (
	"math"
	"net"
	"testing"
	"time"

	"hetsched/internal/netmodel"
)

func uniformDriftBase(n int, lat, bw float64) *netmodel.Perf {
	p := netmodel.NewPerf(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				p.Set(i, j, netmodel.PairPerf{Latency: lat, Bandwidth: bw})
			}
		}
	}
	return p
}

func advanceTo(t *testing.T, d *Drifter, tick int) {
	t.Helper()
	for d.Tick() < tick {
		d.Advance()
	}
}

func TestDrifterStepRampFlap(t *testing.T) {
	base := uniformDriftBase(3, 1e-3, 1e6)
	d, err := NewDrifter(base, []DriftEvent{
		{Src: 0, Dst: 1, Kind: DriftStep, Start: 2, Factor: 0.5},
		{Src: 1, Dst: 2, Kind: DriftRamp, Start: 0, Duration: 4, Factor: 0.25},
		{Src: 2, Dst: 0, Kind: DriftFlap, Start: 0, Period: 2, Factor: 0.1},
		{Src: 0, Dst: 2, Kind: DriftStep, Start: 1, Duration: 2, Factor: 4, LatFactor: 3},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Tick 0: the step has not begun; the ramp is at strength 0; the
	// flap's first half-cycle is nominal.
	if pp := d.Lookup(0, 1); pp.Bandwidth != 1e6 {
		t.Errorf("step applied early: %+v", pp)
	}
	if pp := d.Lookup(2, 0); pp.Bandwidth != 1e6 {
		t.Errorf("flap's first half-cycle must be nominal: %+v", pp)
	}

	advanceTo(t, d, 2)
	if pp := d.Lookup(0, 1); pp.Bandwidth != 0.5e6 {
		t.Errorf("step at tick 2 = %+v, want half bandwidth", pp)
	}
	// Ramp at tick 2 of 4: geometric midpoint of 0.25 is 0.5.
	if pp := d.Lookup(1, 2); math.Abs(pp.Bandwidth-0.5e6) > 1 {
		t.Errorf("mid-ramp bandwidth = %g, want 0.5e6", pp.Bandwidth)
	}
	// Flap: age 2 with period 2 is the second half-cycle — degraded.
	if pp := d.Lookup(2, 0); pp.Bandwidth != 0.1e6 {
		t.Errorf("flap's second half-cycle = %+v, want 0.1e6", pp)
	}
	// Bounded step: active in [1, 3), so still applied at tick 2, and
	// its latency factor rides along.
	if pp := d.Lookup(0, 2); pp.Bandwidth != 4e6 || math.Abs(pp.Latency-3e-3) > 1e-12 {
		t.Errorf("bounded step at tick 2 = %+v, want 4e6 bw and 3ms latency", pp)
	}

	advanceTo(t, d, 4)
	if pp := d.Lookup(1, 2); math.Abs(pp.Bandwidth-0.25e6) > 1 {
		t.Errorf("completed ramp = %g, want 0.25e6", pp.Bandwidth)
	}
	if pp := d.Lookup(2, 0); pp.Bandwidth != 1e6 {
		t.Errorf("flap back to nominal = %+v", pp)
	}
	if pp := d.Lookup(0, 2); pp.Bandwidth != 1e6 || pp.Latency != 1e-3 {
		t.Errorf("expired bounded step still applied: %+v", pp)
	}

	// Current mirrors Lookup pair by pair, and the base is untouched.
	cur := d.Current()
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if i != j && cur.At(i, j) != d.Lookup(i, j) {
				t.Fatalf("Current disagrees with Lookup at (%d,%d)", i, j)
			}
		}
	}
	if base.At(1, 2).Bandwidth != 1e6 {
		t.Error("drifter mutated its base table")
	}
}

func TestDrifterValidationAndBounds(t *testing.T) {
	base := uniformDriftBase(2, 1e-3, 1e6)
	bad := []DriftEvent{
		{Src: 0, Dst: 0, Factor: 1},                // diagonal
		{Src: 0, Dst: 5, Factor: 1},                // out of range
		{Src: 0, Dst: 1, Factor: 0},                // zero factor
		{Src: 0, Dst: 1, Factor: math.Inf(1)},      // infinite factor
		{Src: 0, Dst: 1, Factor: 1, LatFactor: -1}, // negative latency factor
		{Src: 0, Dst: 1, Factor: 1, Start: -1},     // negative start
	}
	for k, ev := range bad {
		if _, err := NewDrifter(base, []DriftEvent{ev}); err == nil {
			t.Errorf("event %d accepted: %+v", k, ev)
		}
	}
	if _, err := NewDrifter(nil, nil); err == nil {
		t.Error("nil base accepted")
	}

	// A crushing factor is floored, never zero: transfers stay finite.
	d, err := NewDrifter(base, []DriftEvent{{Src: 0, Dst: 1, Kind: DriftStep, Factor: 1e-9}})
	if err != nil {
		t.Fatal(err)
	}
	if pp := d.Lookup(0, 1); pp.Bandwidth < FailFloor*1e6*0.99 || pp.Bandwidth == 0 {
		t.Errorf("crushed bandwidth %g below the fail floor", pp.Bandwidth)
	}
	// Out-of-range lookups are inert.
	if pp := d.Lookup(0, 9); pp != (netmodel.PairPerf{}) {
		t.Errorf("out-of-range lookup = %+v", pp)
	}
}

func TestPairDelayInjectorEmulatesPair(t *testing.T) {
	var slept []time.Duration
	in, err := NewPairDelayInjector(PairDelayConfig{
		Lookup: func(src, dst int) netmodel.PairPerf {
			if src != 0 || dst != 1 {
				t.Errorf("lookup for unexpected pair %d→%d", src, dst)
			}
			return netmodel.PairPerf{Latency: 0.5, Bandwidth: 1000}
		},
		Sleep: func(d time.Duration) { slept = append(slept, d) },
	})
	if err != nil {
		t.Fatal(err)
	}
	client, server := net.Pipe()
	wrapped := in.WrapPair(0, 1, server)
	go func() {
		client.Write(make([]byte, 100))
		client.Close()
	}()
	buf := make([]byte, 200)
	n, err := wrapped.Read(buf)
	if err != nil || n != 100 {
		t.Fatalf("read %d bytes, err %v", n, err)
	}
	wrapped.Close()
	if len(slept) != 2 {
		t.Fatalf("sleeps = %v, want latency then transmission", slept)
	}
	if slept[0] != 500*time.Millisecond {
		t.Errorf("latency sleep = %v, want 500ms", slept[0])
	}
	if slept[1] != 100*time.Millisecond {
		t.Errorf("transmission sleep for 100B at 1000B/s = %v, want 100ms", slept[1])
	}
	ctr := in.Counts()
	if ctr.Conns != 1 || ctr.Sleeps != 2 || ctr.Slept != 600*time.Millisecond {
		t.Errorf("counts = %+v", ctr)
	}

	if _, err := NewPairDelayInjector(PairDelayConfig{}); err == nil {
		t.Error("injector without a lookup accepted")
	}
	if _, err := NewPairDelayInjector(PairDelayConfig{Lookup: func(int, int) netmodel.PairPerf { return netmodel.PairPerf{} }, TimeScale: -1}); err == nil {
		t.Error("negative time scale accepted")
	}
}
