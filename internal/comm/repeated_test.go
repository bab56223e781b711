package comm

import (
	"errors"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hetsched/internal/calib"
	"hetsched/internal/model"
	"hetsched/internal/netmodel"
	"hetsched/internal/sched"
	"hetsched/internal/timing"
)

// sameResult compares two served results: algorithm, lower bound (bit
// for bit) and every rendered event with ==.
func sameResult(t *testing.T, what string, a, b *sched.Result) {
	t.Helper()
	if a.Algorithm != b.Algorithm {
		t.Fatalf("%s: algorithm %q vs %q", what, a.Algorithm, b.Algorithm)
	}
	if math.Float64bits(a.LowerBound) != math.Float64bits(b.LowerBound) {
		t.Fatalf("%s: lower bound %v vs %v", what, a.LowerBound, b.LowerBound)
	}
	if a.Schedule.N != b.Schedule.N || len(a.Schedule.Events) != len(b.Schedule.Events) {
		t.Fatalf("%s: schedule shape differs", what)
	}
	for i := range a.Schedule.Events {
		if a.Schedule.Events[i] != b.Schedule.Events[i] {
			t.Fatalf("%s: event %d differs: %+v vs %+v", what, i, a.Schedule.Events[i], b.Schedule.Events[i])
		}
	}
}

// drifted returns a copy of perf with a few pairs' bandwidth moved.
func drifted(rng *rand.Rand, perf *netmodel.Perf) *netmodel.Perf {
	next := perf.Clone()
	n := next.N()
	for k := 0; k < n; k++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i == j {
			continue
		}
		pp := next.At(i, j)
		pp.Bandwidth *= 0.7 + 0.6*rng.Float64()
		next.Set(i, j, pp)
	}
	return next
}

// TestRepeatedMatchesAllToAll is the differential test of the repeated
// path. Three communicators share one scripted source and clock: one
// answers every round with AllToAll, one with AllToAllRepeated, one
// with AllToAllRepeatedScratch. Every round both repeated answers must
// be AllToAll's answer on the same table — algorithm, lower bound and
// events — and the repeated communicators must plan exactly once per
// distinct matrix: an unchanged round, a stale round on the memo's
// table and a recovery after a degraded interlude all re-serve the memo.
func TestRepeatedMatchesAllToAll(t *testing.T) {
	const n = 8
	rng := rand.New(rand.NewSource(42))
	a := netmodel.RandomPerf(rng, n, netmodel.GustoGuided())
	b := drifted(rng, a)
	c := drifted(rng, b)
	src := &switchableSource{perf: a, now: time.Unix(1000, 0)}
	cal, err := calib.New(a, calib.Config{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{StaleBound: 30 * time.Second, Clock: src.clock, Calibrator: cal}
	var comms [3]*Communicator
	for k := range comms {
		if comms[k], err = New(n, src.source, cfg); err != nil {
			t.Fatal(err)
		}
	}
	ref, plain, scratch := comms[0], comms[1], comms[2]
	sizes := model.UniformSizes(n, 1<<18)
	var sc PlanScratch

	rounds := []struct {
		name   string
		before func()
		health Health
		plans  int // plans made by each repeated communicator so far
	}{
		{"first", func() {}, HealthOK, 1},
		{"unchanged", func() {}, HealthOK, 1},
		{"drifted", func() { src.setTable(b) }, HealthOK, 2},
		{"outage → stale", func() { src.set(true); src.advance(10 * time.Second) }, HealthStale, 2},
		{"degraded", func() { src.advance(time.Minute) }, HealthDegraded, 3},
		{"recovered", func() { src.set(false) }, HealthOK, 3},
		{"drifted again", func() { src.setTable(c) }, HealthOK, 4},
		{"calibrator armed", func() { trustSlowPair(t, cal, c, 0, 1) }, HealthOK, 5},
		{"calibrated, unchanged", func() {}, HealthOK, 5},
	}
	for i, rd := range rounds {
		rd.before()
		want, h, err := ref.AllToAllHealth(sizes)
		if err != nil {
			t.Fatalf("%s: %v", rd.name, err)
		}
		if h != rd.health {
			t.Fatalf("%s: AllToAll served from %v, want %v", rd.name, h, rd.health)
		}
		got, err := plain.AllToAllRepeated(sizes)
		if err != nil {
			t.Fatalf("%s: AllToAllRepeated: %v", rd.name, err)
		}
		sameResult(t, rd.name+" (AllToAllRepeated)", want, got)
		got, err = scratch.AllToAllRepeatedScratch(sizes, &sc)
		if err != nil {
			t.Fatalf("%s: AllToAllRepeatedScratch: %v", rd.name, err)
		}
		sameResult(t, rd.name+" (AllToAllRepeatedScratch)", want, got)
		for _, c := range []*Communicator{plain, scratch} {
			st := c.Stats()
			if st.Plans != rd.plans {
				t.Fatalf("%s: %d plans after %d rounds, want %d", rd.name, st.Plans, i+1, rd.plans)
			}
			if c.Health() != rd.health {
				t.Fatalf("%s: health %v, want %v", rd.name, c.Health(), rd.health)
			}
			if st.ServedFresh+st.ServedStale+st.ServedDegraded != i+1 {
				t.Fatalf("%s: %+v does not count %d served rounds", rd.name, st, i+1)
			}
		}
	}
}

// TestRepeatedScratchSteadyServesCache pins the unchanged round: every
// call after the first serves the memo's plan itself and leaves the
// memo in place.
func TestRepeatedScratchSteadyServesCache(t *testing.T) {
	perf := netmodel.Gusto()
	c := newComm(t, perf, Config{})
	sizes := model.UniformSizes(perf.N(), 1<<20)
	var sc PlanScratch
	r0, err := c.AllToAllRepeatedScratch(sizes, &sc)
	if err != nil {
		t.Fatal(err)
	}
	if r0.Algorithm != "openshop" {
		t.Fatalf("first call algorithm %q", r0.Algorithm)
	}
	c.mu.Lock()
	memo := c.memo
	c.mu.Unlock()
	for i := 0; i < 3; i++ {
		r, err := c.AllToAllRepeatedScratch(sizes, &sc)
		if err != nil {
			t.Fatal(err)
		}
		if r.Algorithm != "openshop" || r.Schedule != memo.result.Schedule {
			t.Fatalf("unchanged call %d did not serve the memo's plan: %q", i, r.Algorithm)
		}
	}
	c.mu.Lock()
	same := c.memo == memo
	c.mu.Unlock()
	if !same {
		t.Fatal("an unchanged round replaced the memo")
	}
	if st := c.Stats(); st.Plans != 1 || st.ServedFresh != 4 {
		t.Fatalf("stats = %+v, want 1 plan for 4 rounds", st)
	}
}

// TestRepeatedScratchResultLifetime documents the reuse contract: the
// result returned by the scratch path is only valid until the next call
// with the same scratch, while AllToAllRepeated's results are detached
// and stay stable.
func TestRepeatedScratchResultLifetime(t *testing.T) {
	perf := netmodel.Gusto()
	c := newComm(t, perf, Config{})
	sizes := model.UniformSizes(perf.N(), 1<<20)
	stable, err := c.AllToAllRepeated(sizes)
	if err != nil {
		t.Fatal(err)
	}
	events := append([]timing.Event(nil), stable.Schedule.Events...)
	var sc PlanScratch
	if _, err := c.AllToAllRepeatedScratch(sizes, &sc); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AllToAllRepeatedScratch(sizes, &sc); err != nil {
		t.Fatal(err)
	}
	if len(stable.Schedule.Events) != len(events) {
		t.Fatal("detached result changed shape")
	}
	for i := range events {
		if stable.Schedule.Events[i] != events[i] {
			t.Fatal("detached result mutated by later scratch calls")
		}
	}
}

// TestRepeatedMemoRace runs concurrent repeated callers, half through
// AllToAllRepeated and half through their own PlanScratch, against a
// source that drifts while they call: every caller moves it on every
// fifth round. Under -race (make exec-chaos) it is the memory-safety
// proof for the memo; semantically every result must equal AllToAll on
// the table it was built from. The tables are scaled copies of one
// another, so a result's lower bound names its table, and that table
// must be one the source served while the call ran.
func TestRepeatedMemoRace(t *testing.T) {
	const n, tables = 6, 5
	base := netmodel.RandomPerf(rand.New(rand.NewSource(3)), n, netmodel.GustoGuided())
	sizes := model.UniformSizes(n, 1<<16)
	perfs := make([]*netmodel.Perf, tables)
	want := make([]*sched.Result, tables)
	byBound := map[uint64]int{}
	for k := range perfs {
		perfs[k] = base.Scale(1 + 0.25*float64(k))
		r, err := newComm(t, perfs[k], Config{}).AllToAll(sizes)
		if err != nil {
			t.Fatal(err)
		}
		want[k] = r
		byBound[math.Float64bits(r.LowerBound)] = k
	}
	if len(byBound) != tables {
		t.Fatal("tables do not have distinct lower bounds")
	}
	var epoch atomic.Int64
	c, err := New(n, func() (*netmodel.Perf, error) {
		return perfs[epoch.Load()%tables], nil
	}, Config{})
	if err != nil {
		t.Fatal(err)
	}

	const callers, iters = 4, 100
	var wg sync.WaitGroup
	errs := make(chan string, callers*iters)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var sc PlanScratch
			for i := 0; i < iters; i++ {
				if i%5 == 0 {
					epoch.Add(1)
				}
				before := epoch.Load()
				var r *sched.Result
				var err error
				if g%2 == 0 {
					r, err = c.AllToAllRepeated(sizes)
				} else {
					r, err = c.AllToAllRepeatedScratch(sizes, &sc)
				}
				after := epoch.Load()
				if err != nil {
					errs <- err.Error()
					return
				}
				k, ok := byBound[math.Float64bits(r.LowerBound)]
				if !ok {
					errs <- "result lower bound matches no table"
					return
				}
				served := false
				for e := before; e <= after && !served; e++ {
					served = int(e%tables) == k
				}
				if !served {
					errs <- "result planned for a table the source did not serve during the call"
					return
				}
				if r.Algorithm != want[k].Algorithm || len(r.Schedule.Events) != len(want[k].Schedule.Events) {
					errs <- "result differs from AllToAll on its table"
					return
				}
				for j, ev := range r.Schedule.Events {
					if ev != want[k].Schedule.Events[j] {
						errs <- "result events differ from AllToAll on its table"
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
	if st := c.Stats(); st.Plans < 2 || st.Plans >= callers*iters {
		t.Fatalf("%d plans for %d rounds: the memo was not both missed and served", st.Plans, callers*iters)
	}
}

// flipTables returns two scaled copies of the Gusto table and, by lower
// bound, the AllToAll answer on each.
func flipTables(t *testing.T, sizes *model.Sizes) ([2]*netmodel.Perf, map[uint64]*sched.Result) {
	t.Helper()
	perfs := [2]*netmodel.Perf{netmodel.Gusto(), netmodel.Gusto().Scale(1.5)}
	want := map[uint64]*sched.Result{}
	for _, p := range perfs {
		r, err := newComm(t, p, Config{}).AllToAll(sizes)
		if err != nil {
			t.Fatal(err)
		}
		want[math.Float64bits(r.LowerBound)] = r
	}
	if len(want) != len(perfs) {
		t.Fatal("tables do not have distinct lower bounds")
	}
	return perfs, want
}

// exchangeLoop calls fn iters times and reports the first error, or the
// first result that is not a valid total exchange equal to AllToAll's
// answer on one of the tables in want.
func exchangeLoop(errs chan<- error, iters int, want map[uint64]*sched.Result, fn func() (*sched.Result, error)) {
	for i := 0; i < iters; i++ {
		r, err := fn()
		if err == nil {
			err = r.Schedule.ValidateTotalExchange(nil)
		}
		if err == nil {
			w, ok := want[math.Float64bits(r.LowerBound)]
			switch {
			case !ok:
				err = errors.New("result lower bound matches no table")
			case r.Algorithm != w.Algorithm || len(r.Schedule.Events) != len(w.Schedule.Events):
				err = errors.New("result differs from AllToAll on its table")
			default:
				for j, ev := range r.Schedule.Events {
					if ev != w.Schedule.Events[j] {
						err = errors.New("result events differ from AllToAll on its table")
						break
					}
				}
			}
		}
		if err != nil {
			errs <- err
			return
		}
	}
}

// TestInvalidateRacesRepeatedUnderLoad races the memo's invalidation
// against its readers. The memo has no Invalidate call: a round whose
// table moved replaces the entry whole. So while two repeated callers
// and a plain AllToAll caller share one communicator, a fourth
// goroutine flips the source between two tables. Every result must be
// a valid total exchange equal to AllToAll on one of the two tables.
func TestInvalidateRacesRepeatedUnderLoad(t *testing.T) {
	sizes := model.UniformSizes(5, 1<<20)
	perfs, want := flipTables(t, sizes)
	src := &switchableSource{perf: perfs[0]}
	c, err := New(5, src.source, Config{})
	if err != nil {
		t.Fatal(err)
	}
	const iters = 40
	var wg sync.WaitGroup
	errs := make(chan error, 4*iters)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			exchangeLoop(errs, iters, want, func() (*sched.Result, error) { return c.AllToAllRepeated(sizes) })
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		exchangeLoop(errs, iters, want, func() (*sched.Result, error) { return c.AllToAll(sizes) })
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			src.setTable(perfs[(i+1)%2])
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestRepeatedScratchPoolInvalidateRace hammers the repeated path from
// every side at once: two communicators, each serving plain repeated
// calls (every one with a fresh PlanScratch) and a dedicated
// caller-owned PlanScratch, while each one's source flips between two
// tables so the memo is replaced mid-plan. Under -race (the exec-chaos
// CI leg) this is the memory-safety proof for scratch reuse alongside
// memo replacement; semantically, every served schedule must be a valid
// total exchange equal to AllToAll on one of the two tables.
func TestRepeatedScratchPoolInvalidateRace(t *testing.T) {
	sizes := model.UniformSizes(5, 1<<20)
	perfs, want := flipTables(t, sizes)
	const iters = 30
	var wg sync.WaitGroup
	errs := make(chan error, 6*iters)
	for k := 0; k < 2; k++ {
		src := &switchableSource{perf: perfs[k]}
		c, err := New(5, src.source, Config{})
		if err != nil {
			t.Fatal(err)
		}
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				exchangeLoop(errs, iters, want, func() (*sched.Result, error) { return c.AllToAllRepeated(sizes) })
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sc PlanScratch
			exchangeLoop(errs, iters, want, func() (*sched.Result, error) { return c.AllToAllRepeatedScratch(sizes, &sc) })
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				src.setTable(perfs[(i+1)%2])
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
