package comm

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"hetsched/internal/calib"
	"hetsched/internal/model"
	"hetsched/internal/netmodel"
)

func newComm(t *testing.T, perf *netmodel.Perf, cfg Config) *Communicator {
	t.Helper()
	c, err := New(perf.N(), StaticSource(perf), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewValidation(t *testing.T) {
	if _, err := New(-1, StaticSource(netmodel.Gusto()), Config{}); err == nil {
		t.Error("negative n accepted")
	}
	if _, err := New(5, nil, Config{}); err == nil {
		t.Error("nil source accepted")
	}
	sink := func([]calib.Update) error { return nil }
	if _, err := New(5, StaticSource(netmodel.Gusto()), Config{CalibSink: sink}); err == nil {
		t.Error("calibration sink without a calibrator accepted")
	}
}

func TestAllToAll(t *testing.T) {
	c := newComm(t, netmodel.Gusto(), Config{})
	sizes := model.UniformSizes(5, 1<<20)
	r, err := c.AllToAll(sizes)
	if err != nil {
		t.Fatal(err)
	}
	if r.Algorithm != "openshop" {
		t.Errorf("default scheduler = %q", r.Algorithm)
	}
	if c.Quality(r) > 2+1e-9 {
		t.Errorf("quality %g exceeds Theorem 3", c.Quality(r))
	}
	if c.Stats().Plans != 1 {
		t.Errorf("stats = %+v", c.Stats())
	}
}

func TestAllToAllSizeMismatch(t *testing.T) {
	c := newComm(t, netmodel.Gusto(), Config{})
	if _, err := c.AllToAll(model.UniformSizes(4, 1)); err == nil {
		t.Error("size mismatch accepted")
	}
}

func TestAllToAllSourceError(t *testing.T) {
	// A failing source no longer fails the exchange: with no cached
	// snapshot the fallback ladder lands on the blind caterpillar
	// baseline and reports degraded health.
	boom := errors.New("directory down")
	c, err := New(5, func() (*netmodel.Perf, error) { return nil, boom }, Config{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := c.AllToAll(model.UniformSizes(5, 1))
	if err != nil {
		t.Fatalf("ladder leaked the source error: %v", err)
	}
	if r.Algorithm != "baseline+degraded" {
		t.Errorf("degraded algorithm = %q", r.Algorithm)
	}
	if err := r.Schedule.ValidateTotalExchange(nil); err != nil {
		t.Errorf("degraded schedule invalid: %v", err)
	}
	if c.Health() != HealthDegraded {
		t.Errorf("health = %v, want degraded", c.Health())
	}
	if st := c.Stats(); st.ServedDegraded != 1 || st.ServedFresh != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestAllToAllSourceShapeMismatch(t *testing.T) {
	c, err := New(4, StaticSource(netmodel.Gusto()), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.AllToAll(model.UniformSizes(4, 1)); err == nil {
		t.Error("directory shape mismatch accepted")
	}
}

func TestCommConcurrentUse(t *testing.T) {
	// Race soak (run under -race): one-shot, repeated, and stats calls
	// from many goroutines against one communicator. Each goroutine's
	// one-shot plans are for its own sizes and must match a plan made
	// alone: the pooled cost matrices are never shared between calls.
	c := newComm(t, netmodel.Gusto(), Config{})
	sizes := model.UniformSizes(5, 1<<20)
	alone := newComm(t, netmodel.Gusto(), Config{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		own := model.UniformSizes(5, int64(g+1)<<18)
		own.Set(g, (g+1)%5, 7)
		want, err := alone.AllToAll(own)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 5; k++ {
				r, err := c.AllToAll(own)
				if err != nil {
					t.Error(err)
					return
				}
				if r.LowerBound != want.LowerBound || r.CompletionTime() != want.CompletionTime() {
					t.Errorf("concurrent plan t_lb %v t_max %v, alone %v %v",
						r.LowerBound, r.CompletionTime(), want.LowerBound, want.CompletionTime())
					return
				}
				if _, err := c.AllToAllRepeated(sizes); err != nil {
					t.Error(err)
					return
				}
				_ = c.Stats()
			}
		}()
	}
	wg.Wait()
	if st := c.Stats(); st.Plans < 4*5 || st.ServedFresh != 2*4*5 {
		t.Errorf("implausible stats %+v", st)
	}
}

func TestCommUnderRandomDrift(t *testing.T) {
	// Soak: repeated exchanges against a drifting network stay valid,
	// plan every drifted round, and stay inside Theorem 3's bound.
	rng := rand.New(rand.NewSource(7))
	base := netmodel.RandomPerf(rng, 8, netmodel.GustoGuided())
	walker := netmodel.NewWalker(rng, base, netmodel.Drift{RelStep: 0.15, MinFactor: 0.3, MaxFactor: 3})
	cur := base.Clone()
	c, err := New(8, func() (*netmodel.Perf, error) { return cur.Clone(), nil }, Config{})
	if err != nil {
		t.Fatal(err)
	}
	sizes := model.UniformSizes(8, 1<<20)
	for round := 0; round < 12; round++ {
		r, err := c.AllToAllRepeated(sizes)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if err := r.Schedule.ValidateTotalExchange(nil); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if q := c.Quality(r); q > 2.0 {
			t.Fatalf("round %d: quality %g exceeds Theorem 3", round, q)
		}
		cur = walker.Step()
	}
	if st := c.Stats(); st.Plans != 12 {
		t.Errorf("12 drifted rounds planned %d times: %+v", st.Plans, st)
	}
}

// TestSourceTableIsReadOnly pins the communicator's half of the Source
// contract: a source may hand one table to every plan, so no planning
// path — one-shot, repeated, scratch, or the calibration overlay with a
// trusted estimate armed — may write to it.
func TestSourceTableIsReadOnly(t *testing.T) {
	const n = 5
	table := netmodel.Gusto()
	pristine := table.Clone()
	cal, err := calib.New(table, calib.Config{})
	if err != nil {
		t.Fatal(err)
	}
	trustSlowPair(t, cal, table, 0, 1)
	if overlaid := cal.Apply(table); overlaid == table {
		t.Fatal("the overlay is a no-op; the copy-on-write path would go untested")
	}

	calls := 0
	source := func() (*netmodel.Perf, error) { calls++; return table, nil }
	c, err := New(n, source, Config{Calibrator: cal})
	if err != nil {
		t.Fatal(err)
	}
	sizes := model.UniformSizes(n, 1<<20)
	var sc PlanScratch
	for k := 0; k < 3; k++ {
		if _, err := c.AllToAll(sizes); err != nil {
			t.Fatal(err)
		}
		if _, err := c.AllToAllRepeated(sizes); err != nil {
			t.Fatal(err)
		}
		if _, err := c.AllToAllRepeatedScratch(sizes, &sc); err != nil {
			t.Fatal(err)
		}
	}
	if calls != 9 {
		t.Errorf("source consulted %d times for 9 plans", calls)
	}
	if !table.Equal(pristine) {
		t.Error("planning wrote to the table its source handed out")
	}
}

// trustSlowPair teaches cal that src→dst runs at a third of table's
// rate, until it trusts the estimate enough to overlay it.
func trustSlowPair(t *testing.T, cal *calib.Calibrator, table *netmodel.Perf, src, dst int) {
	t.Helper()
	slow := table.At(src, dst)
	slow.Bandwidth /= 3
	for batch := 0; batch < 64 && !cal.Pair(src, dst).Trusted; batch++ {
		var samples []calib.Sample
		for _, size := range []int64{1 << 14, 1 << 17, 1 << 20} {
			samples = append(samples, calib.Sample{Src: src, Dst: dst, Bytes: size,
				Seconds: slow.TransferTime(size), Outcome: calib.OutcomeDelivered})
		}
		cal.ObserveBatch(samples)
	}
	if !cal.Pair(src, dst).Trusted {
		t.Fatal("calibrator never trusted the pair; the overlay path would go untested")
	}
}
