package comm

import (
	"errors"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"hetsched/internal/calib"
	"hetsched/internal/model"
	"hetsched/internal/netmodel"
	"hetsched/internal/sched"
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
	if _, err := New(5, StaticSource(netmodel.Gusto()), Config{RepairThreshold: -1}); err == nil {
		t.Error("negative threshold accepted")
	}
	if _, err := New(5, StaticSource(netmodel.Gusto()), Config{RecomputeFraction: 2}); err == nil {
		t.Error("fraction > 1 accepted")
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

func TestRepeatedStableNetworkRepairsCheaply(t *testing.T) {
	c := newComm(t, netmodel.Gusto(), Config{})
	sizes := model.UniformSizes(5, 1<<20)
	first, err := c.AllToAllRepeated(sizes)
	if err != nil {
		t.Fatal(err)
	}
	if first.Algorithm != "maxmatch" {
		t.Errorf("first plan should be the repair scheduler, got %q", first.Algorithm)
	}
	for k := 0; k < 3; k++ {
		r, err := c.AllToAllRepeated(sizes)
		if err != nil {
			t.Fatal(err)
		}
		if r.Algorithm != "maxmatch+repair" {
			t.Errorf("call %d: algorithm %q", k, r.Algorithm)
		}
		if err := r.Schedule.ValidateTotalExchange(nil); err != nil {
			t.Fatalf("call %d: %v", k, err)
		}
		if r.CompletionTime() != first.CompletionTime() {
			t.Errorf("stable network changed the schedule: %g vs %g", r.CompletionTime(), first.CompletionTime())
		}
	}
	st := c.Stats()
	if st.Plans != 1 || st.Repairs != 3 || st.Recomputes != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestRepeatedDriftTriggersRepairThenRecompute(t *testing.T) {
	perf := netmodel.Gusto()
	cur := perf.Clone()
	c, err := New(5, func() (*netmodel.Perf, error) { return cur.Clone(), nil }, Config{})
	if err != nil {
		t.Fatal(err)
	}
	sizes := model.UniformSizes(5, 1<<20)
	if _, err := c.AllToAllRepeated(sizes); err != nil {
		t.Fatal(err)
	}
	// Small drift: one link slows 3× — repair.
	pp := cur.At(0, 1)
	pp.Bandwidth /= 3
	cur.Set(0, 1, pp)
	r, err := c.AllToAllRepeated(sizes)
	if err != nil {
		t.Fatal(err)
	}
	if r.Algorithm != "maxmatch+repair" {
		t.Errorf("small drift should repair, got %q", r.Algorithm)
	}
	if err := r.Schedule.ValidateTotalExchange(nil); err != nil {
		t.Fatal(err)
	}
	// Massive drift: everything slows — recompute.
	cur = cur.Scale(0.1)
	r, err = c.AllToAllRepeated(sizes)
	if err != nil {
		t.Fatal(err)
	}
	if r.Algorithm != "maxmatch" {
		t.Errorf("large drift should recompute, got %q", r.Algorithm)
	}
	st := c.Stats()
	if st.Repairs != 1 || st.Recomputes != 1 || st.Plans != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestInvalidate(t *testing.T) {
	c := newComm(t, netmodel.Gusto(), Config{})
	sizes := model.UniformSizes(5, 1<<20)
	if _, err := c.AllToAllRepeated(sizes); err != nil {
		t.Fatal(err)
	}
	c.Invalidate()
	r, err := c.AllToAllRepeated(sizes)
	if err != nil {
		t.Fatal(err)
	}
	if r.Algorithm != "maxmatch" {
		t.Error("Invalidate should force a fresh plan")
	}
}

func TestDrifted(t *testing.T) {
	perf := netmodel.Gusto()
	cur := perf.Clone()
	c, err := New(5, func() (*netmodel.Perf, error) { return cur.Clone(), nil }, Config{})
	if err != nil {
		t.Fatal(err)
	}
	sizes := model.UniformSizes(5, 1<<20)
	d, err := c.Drifted(sizes)
	if err != nil || d != 0 {
		t.Errorf("no cache should report drift 0: %g, %v", d, err)
	}
	if _, err := c.AllToAllRepeated(sizes); err != nil {
		t.Fatal(err)
	}
	d, err = c.Drifted(sizes)
	if err != nil || d > 1e-12 {
		t.Errorf("stable network drift = %g", d)
	}
	pp := cur.At(0, 1)
	pp.Bandwidth /= 2
	cur.Set(0, 1, pp)
	d, err = c.Drifted(sizes)
	if err != nil {
		t.Fatal(err)
	}
	if d < 0.5 {
		t.Errorf("halved bandwidth should drift the cost ~2×, got %g", d)
	}
}

func TestRepeatedRejectsStepLessRepairScheduler(t *testing.T) {
	c := newComm(t, netmodel.Gusto(), Config{RepairScheduler: sched.NewOpenShop()})
	if _, err := c.AllToAllRepeated(model.UniformSizes(5, 1<<20)); err == nil {
		t.Error("openshop has no step structure; repair planning should fail loudly")
	}
}

func TestAllToAllBatch(t *testing.T) {
	c := newComm(t, netmodel.Gusto(), Config{})
	var sizes []*model.Sizes
	for k := 0; k < 9; k++ {
		sizes = append(sizes, model.UniformSizes(5, int64(1)<<(10+k)))
	}
	rs, err := c.AllToAllBatch(sizes, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != len(sizes) {
		t.Fatalf("%d results for %d size vectors", len(rs), len(sizes))
	}
	// Batch planning must match one-at-a-time planning entry for entry.
	ref := newComm(t, netmodel.Gusto(), Config{})
	for k, s := range sizes {
		want, err := ref.AllToAll(s)
		if err != nil {
			t.Fatal(err)
		}
		if rs[k] == nil {
			t.Fatalf("entry %d missing", k)
		}
		if rs[k].CompletionTime() != want.CompletionTime() {
			t.Errorf("entry %d: batch %g, sequential %g", k, rs[k].CompletionTime(), want.CompletionTime())
		}
		if err := rs[k].Schedule.ValidateTotalExchange(nil); err != nil {
			t.Errorf("entry %d: %v", k, err)
		}
	}
	if st := c.Stats(); st.Plans != len(sizes) {
		t.Errorf("stats = %+v, want %d plans", st, len(sizes))
	}
}

func TestAllToAllBatchEmptyAndErrors(t *testing.T) {
	c := newComm(t, netmodel.Gusto(), Config{})
	rs, err := c.AllToAllBatch(nil, 0)
	if err != nil || len(rs) != 0 {
		t.Errorf("empty batch: %v, %v", rs, err)
	}
	// The lowest-index failure is reported, like a sequential loop.
	sizes := []*model.Sizes{
		model.UniformSizes(5, 1),
		model.UniformSizes(3, 1), // wrong N — fails
		model.UniformSizes(5, 1),
		model.UniformSizes(4, 1), // wrong N — fails later
	}
	if _, err := c.AllToAllBatch(sizes, 4); err == nil {
		t.Error("mismatched batch entry accepted")
	} else if !strings.Contains(err.Error(), "sizes are for 3 processors") {
		t.Errorf("want the index-1 error first, got: %v", err)
	}
}

func TestCommConcurrentUse(t *testing.T) {
	// Race soak (run under -race): one-shot, batch, repeated, and
	// stats calls from many goroutines against one communicator.
	c := newComm(t, netmodel.Gusto(), Config{})
	sizes := model.UniformSizes(5, 1<<20)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 5; k++ {
				if _, err := c.AllToAll(sizes); err != nil {
					t.Error(err)
					return
				}
				if _, err := c.AllToAllRepeated(sizes); err != nil {
					t.Error(err)
					return
				}
				if _, err := c.AllToAllBatch([]*model.Sizes{sizes, sizes}, 2); err != nil {
					t.Error(err)
					return
				}
				_ = c.Stats()
				if _, err := c.Drifted(sizes); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	st := c.Stats()
	if got := st.Plans + st.Repairs + st.Recomputes; got < 4*5 {
		t.Errorf("implausible stats %+v", st)
	}
}

func TestCommUnderRandomDrift(t *testing.T) {
	// Soak: repeated exchanges against a drifting network stay valid
	// and track the moving lower bound within the matching quality band.
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
		if q := c.Quality(r); q > 2.0 {
			t.Fatalf("round %d: quality %g collapsed", round, q)
		}
		cur = walker.Step()
	}
	st := c.Stats()
	if st.Plans+st.Repairs < 12 {
		t.Errorf("stats don't add up: %+v", st)
	}
	t.Logf("drift soak stats: %+v", st)
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
	// Teach the calibrator that 0→1 runs at a third of the table's rate,
	// until it trusts the estimate enough to overlay it.
	slow := table.At(0, 1)
	slow.Bandwidth /= 3
	for batch := 0; batch < 64 && !cal.Pair(0, 1).Trusted; batch++ {
		var samples []calib.Sample
		for _, size := range []int64{1 << 14, 1 << 17, 1 << 20} {
			samples = append(samples, calib.Sample{Src: 0, Dst: 1, Bytes: size,
				Seconds: slow.TransferTime(size), Outcome: calib.OutcomeDelivered})
		}
		cal.ObserveBatch(samples)
	}
	if !cal.Pair(0, 1).Trusted {
		t.Fatal("calibrator never trusted the pair; the overlay path would go untested")
	}
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
