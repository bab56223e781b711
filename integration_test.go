package hetsched

// Integration tests: whole-pipeline flows across module boundaries,
// the way the paper's Figure 2 wires the components together —
// directory service → communication model → scheduling algorithm →
// (simulated) execution → adaptation.

import (
	"math/rand"
	"testing"
	"time"

	"hetsched/internal/calib"
	"hetsched/internal/directory"
	"hetsched/internal/incremental"
	"hetsched/internal/netmodel"
	"hetsched/internal/sched"
	"hetsched/internal/timing"
)

// TestPipelineDirectoryToExecution runs the full loop over a live TCP
// directory: snapshot, build, schedule, execute, verify against the
// lower bound; then the network shifts, the directory is re-queried,
// and a new schedule adapts.
func TestPipelineDirectoryToExecution(t *testing.T) {
	store, err := NewDirectory(Gusto(), GustoSites)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewDirectoryServer(store)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := DialDirectory(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	schedule := func() (*Result, *Perf) {
		perf, _, _, err := cl.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		m, err := BuildUniform(perf, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		res, err := OpenShop().Schedule(m)
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Schedule.ValidateTotalExchange(m); err != nil {
			t.Fatal(err)
		}
		return res, perf
	}

	res1, perf1 := schedule()
	plan, err := PlanFromSchedule(res1.Schedule, UniformSizes(5, 1<<20))
	if err != nil {
		t.Fatal(err)
	}
	exec, err := Simulate(perf1, plan)
	if err != nil {
		t.Fatal(err)
	}
	if exec.Finish < res1.LowerBound-1e-9 {
		t.Error("execution beat the lower bound")
	}

	// Load shift: one link collapses. The next snapshot must produce a
	// different schedule with a larger bound.
	slow := perf1.At(0, 3)
	slow.Bandwidth /= 100
	collapse := []calib.Update{
		{Src: 0, Dst: 3, Latency: slow.Latency, Bandwidth: slow.Bandwidth},
		{Src: 3, Dst: 0, Latency: slow.Latency, Bandwidth: slow.Bandwidth},
	}
	if applied, _, _, err := cl.Calibrate(collapse, nil); err != nil || applied != 2 {
		t.Fatalf("collapse applied %d: %v", applied, err)
	}
	res2, _ := schedule()
	if res2.LowerBound <= res1.LowerBound {
		t.Errorf("collapsed link should raise the bound: %g vs %g", res2.LowerBound, res1.LowerBound)
	}
	// The adaptive schedule still tracks its (new) bound within
	// Theorem 3's guarantee.
	if res2.Ratio() > 2+1e-9 {
		t.Errorf("post-shift ratio %g exceeds Theorem 3", res2.Ratio())
	}
}

// TestPipelineFeederDrivesAdaptation publishes drift through a feeder
// and verifies schedules keep tracking the moving lower bound.
func TestPipelineFeederDrivesAdaptation(t *testing.T) {
	store, err := NewDirectory(Gusto(), nil)
	if err != nil {
		t.Fatal(err)
	}
	feeder := directory.NewFeeder(store, rand.New(rand.NewSource(11)), netmodel.Drift{
		RelStep: 0.4, MinFactor: 0.1, MaxFactor: 5,
	})
	for round := 0; round < 8; round++ {
		perf, _ := store.Snapshot()
		m, err := BuildUniform(perf, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		res, err := OpenShop().Schedule(m)
		if err != nil {
			t.Fatal(err)
		}
		if res.Ratio() > 2+1e-9 {
			t.Fatalf("round %d: ratio %g exceeds Theorem 3", round, res.Ratio())
		}
		if _, err := feeder.Tick(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPipelinePartialPatternStaging chains the all-to-some scheduler
// with the simulator: a staging-style pattern (few sources, many
// destinations) is scheduled and executed.
func TestPipelinePartialPatternStaging(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	perf := RandomPerf(rng, 12, GustoGuided())
	sizes := UniformSizes(12, 1<<20)
	m, err := Build(perf, sizes)
	if err != nil {
		t.Fatal(err)
	}
	var pattern PartialPattern
	for src := 0; src < 2; src++ { // two repositories
		for dst := 2; dst < 12; dst++ {
			pattern = append(pattern, timing.Pair{Src: src, Dst: dst})
		}
	}
	r, err := PartialOpenShop(m, pattern)
	if err != nil {
		t.Fatal(err)
	}
	lb := PatternLowerBound(m, pattern)
	if r.CompletionTime() > 2*lb*(1+1e-9) {
		t.Errorf("partial openshop ratio %g exceeds 2", r.CompletionTime()/lb)
	}
	plan, err := PlanFromSchedule(r.Schedule, sizes)
	if err != nil {
		t.Fatal(err)
	}
	exec, err := Simulate(perf, plan)
	if err != nil {
		t.Fatal(err)
	}
	if exec.Finish < lb-1e-9 {
		t.Error("execution beat the pattern bound")
	}
	if len(exec.Schedule.Events) != len(pattern) {
		t.Error("execution lost events")
	}
}

// TestPipelineStagingOverGusto delivers data items across the GUSTO
// sites with relaying and checks port constraints hold end to end.
func TestPipelineStagingOverGusto(t *testing.T) {
	prob := &StagingProblem{
		N:    5,
		Perf: Gusto(),
		Items: []StagingItem{
			{Name: "terrain", Size: 4 << 20, Sources: []int{0}},
			{Name: "imagery", Size: 1 << 20, Sources: []int{3}},
		},
	}
	for dst := 0; dst < 5; dst++ {
		prob.Requests = append(prob.Requests,
			StagingRequest{Item: "terrain", Dst: dst, Deadline: 1e9},
			StagingRequest{Item: "imagery", Dst: dst, Deadline: 1e9},
		)
	}
	res, err := ScheduleStaging(prob, StagedDelivery)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Deliveries) != 10 {
		t.Fatalf("%d deliveries", len(res.Deliveries))
	}
	if err := res.Schedule.Validate(nil); err != nil {
		t.Fatalf("staging transfers violate port constraints: %v", err)
	}
}

// TestPipelineRefineAfterDirectoryUpdate exercises §6.2 end to end:
// schedule, directory reports changed links, repair, validate.
func TestPipelineRefineAfterDirectoryUpdate(t *testing.T) {
	store, err := NewDirectory(Gusto(), nil)
	if err != nil {
		t.Fatal(err)
	}
	perf, _ := store.Snapshot()
	old, err := BuildUniform(perf, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	prev, err := sched.MaxMatching{}.Schedule(old)
	if err != nil {
		t.Fatal(err)
	}
	// One link slows 5×; the directory publishes it.
	pp := perf.At(1, 4)
	pp.Bandwidth /= 5
	if applied, _, _ := store.ApplyCalibration([]calib.Update{{Src: 1, Dst: 4, Latency: pp.Latency, Bandwidth: pp.Bandwidth}}); applied != 1 {
		t.Fatal("the slowed link did not apply")
	}
	fresh, _ := store.Snapshot()
	cur, err := BuildUniform(fresh, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	repaired, stats, err := incremental.Refine(prev.Steps, old, cur, incremental.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if stats.DirtySteps != 1 {
		t.Errorf("one changed link should dirty one step, got %d", stats.DirtySteps)
	}
	s, err := repaired.Evaluate(cur)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ValidateTotalExchange(cur); err != nil {
		t.Fatal(err)
	}
}
