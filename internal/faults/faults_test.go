package faults

import (
	"errors"
	"math/rand"
	"net"
	"testing"
	"time"

	"hetsched/internal/model"
	"hetsched/internal/netmodel"
	"hetsched/internal/sched"
	"hetsched/internal/sim"
)

func TestConnInjectorDeterministic(t *testing.T) {
	// Two injectors with the same seed must make identical decisions.
	cfg := ConnConfig{Seed: 7, DropProb: 0.2, StallProb: 0.2, PartialProb: 0.2, Stall: time.Microsecond}
	a, b := NewConnInjector(cfg), NewConnInjector(cfg)
	for k := 0; k < 200; k++ {
		write := k%2 == 0
		if fa, fb := a.roll(write), b.roll(write); fa != fb {
			t.Fatalf("roll %d diverged: %v vs %v", k, fa, fb)
		}
	}
	if ca, cb := a.Counts(), b.Counts(); ca != cb {
		t.Errorf("counters diverged: %+v vs %+v", ca, cb)
	}
}

func TestConnInjectorFaults(t *testing.T) {
	// A pipe with a 100%-drop injector on one end: the first read fails
	// with the injected sentinel and the peer sees the close.
	c1, c2 := net.Pipe()
	in := NewConnInjector(ConnConfig{DropProb: 1})
	fc := in.Wrap(c1)
	done := make(chan error, 1)
	go func() {
		buf := make([]byte, 8)
		_, err := fc.Read(buf)
		done <- err
	}()
	if err := <-done; !errors.Is(err, ErrInjected) {
		t.Fatalf("dropped read = %v, want ErrInjected", err)
	}
	c2.Close()

	// Partial write: half the bytes arrive, then the conn dies.
	c3, c4 := net.Pipe()
	defer c4.Close()
	inP := NewConnInjector(ConnConfig{PartialProb: 1})
	fp := inP.Wrap(c3)
	got := make(chan int, 1)
	go func() {
		buf := make([]byte, 64)
		n, _ := c4.Read(buf)
		got <- n
	}()
	n, err := fp.Write([]byte("0123456789"))
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("partial write err = %v", err)
	}
	if n != 5 {
		t.Errorf("partial write reported %d bytes, want 5", n)
	}
	if arrived := <-got; arrived != 5 {
		t.Errorf("%d bytes arrived, want 5", arrived)
	}
	if c := inP.Counts(); c.Partials != 1 || c.Conns != 1 {
		t.Errorf("counts = %+v", c)
	}
}

func TestNetworkEventsDegradeLinks(t *testing.T) {
	base := netmodel.Gusto()
	nw, err := NewNetwork(base, []LinkEvent{
		{Time: 5, Src: 0, Dst: 1, Factor: 0.5},
		{Time: 9, Src: 0, Dst: 1, Factor: 0}, // failure
	})
	if err != nil {
		t.Fatal(err)
	}
	size := int64(1 << 20)
	before := nw.TransferTime(0, 1, size, 0)
	mid := nw.TransferTime(0, 1, size, 6)
	after := nw.TransferTime(0, 1, size, 10)
	if !(before < mid && mid < after) {
		t.Errorf("durations not monotone under degradation: %g %g %g", before, mid, after)
	}
	if nw.TransferTime(2, 3, size, 10) != base.TransferTime(2, 3, size) {
		t.Error("untouched link changed")
	}
	// The observe view must match what the engine samples.
	obs := nw.At(10)
	if got, want := obs.TransferTime(0, 1, size), after; got != want {
		t.Errorf("observe at t=10: %g, engine %g", got, want)
	}
	if err := obs.Validate(); err != nil {
		t.Errorf("observed table invalid: %v", err)
	}
	if times := nw.Times(); len(times) != 2 || times[0] != 5 || times[1] != 9 {
		t.Errorf("times = %v", times)
	}
	// Invalid events are rejected.
	if _, err := NewNetwork(base, []LinkEvent{{Time: 1, Src: 0, Dst: 0, Factor: 1}}); err == nil {
		t.Error("self-link event accepted")
	}
	if _, err := NewNetwork(base, []LinkEvent{{Time: 1, Src: 0, Dst: 9, Factor: 1}}); err == nil {
		t.Error("out-of-range event accepted")
	}
}

func TestRandomLinkEventsSeeded(t *testing.T) {
	a := RandomLinkEvents(rand.New(rand.NewSource(11)), 8, 6, 10)
	b := RandomLinkEvents(rand.New(rand.NewSource(11)), 8, 6, 10)
	if len(a) != 6 {
		t.Fatalf("got %d events", len(a))
	}
	for k := range a {
		if a[k] != b[k] {
			t.Fatalf("event %d differs across identical seeds: %+v vs %+v", k, a[k], b[k])
		}
	}
	seen := map[[2]int]bool{}
	for k, e := range a {
		if e.Src == e.Dst || seen[[2]int{e.Src, e.Dst}] {
			t.Errorf("event %d reuses or self-targets a link: %+v", k, e)
		}
		seen[[2]int{e.Src, e.Dst}] = true
		if e.Time <= 0 || e.Time > 10 {
			t.Errorf("event %d outside window: %+v", k, e)
		}
		if k > 0 && a[k].Time < a[k-1].Time {
			t.Error("events not sorted")
		}
	}
}

// TestChaosReactiveSimulation is the sim rung of the chaos suite: a
// seeded batch of mid-run link failures hits a planned total exchange,
// and the reactive engine must detect each event window, checkpoint,
// re-plan the remaining exchange, and still deliver every message.
func TestChaosReactiveSimulation(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	perf := netmodel.RandomPerf(rng, 10, netmodel.GustoGuided())
	sizes := model.UniformSizes(10, 1<<20)
	m, err := model.Build(perf, sizes)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sched.NewOpenShop().Schedule(m)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := sim.PlanFromSchedule(res.Schedule, sizes)
	if err != nil {
		t.Fatal(err)
	}

	events := RandomLinkEvents(rng, 10, 5, res.CompletionTime())
	nw, err := NewNetwork(perf, events)
	if err != nil {
		t.Fatal(err)
	}

	adaptive, err := sim.RunReactive(nw, nw.At, nw.Times(), plan, sim.EveryEvents{K: 10}, sim.ReplanOpenShop)
	if err != nil {
		t.Fatal(err)
	}
	rigid, err := sim.RunReactive(nw, nw.At, nw.Times(), plan, sim.EveryEvents{K: 10}, sim.KeepOrder)
	if err != nil {
		t.Fatal(err)
	}
	for name, r := range map[string]*sim.ReactiveResult{"adaptive": adaptive, "rigid": rigid} {
		if len(r.Schedule.Events) != plan.Events() {
			t.Errorf("%s: executed %d of %d events", name, len(r.Schedule.Events), plan.Events())
		}
		if err := r.Schedule.Validate(nil); err != nil {
			t.Errorf("%s: executed schedule invalid: %v", name, err)
		}
	}
	if adaptive.Replans == 0 {
		t.Error("link failures never triggered a re-plan")
	}
	t.Logf("finish: adaptive %.4g s (%d replans, %d checkpoints) vs keep-order %.4g s",
		adaptive.Finish, adaptive.Replans, adaptive.Checkpoints, rigid.Finish)
}
