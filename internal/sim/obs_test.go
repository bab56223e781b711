package sim

import (
	"math/rand"
	"testing"

	"hetsched/internal/model"
	"hetsched/internal/netmodel"
	"hetsched/internal/sched"
)

// telemetryPlan builds a runnable plan for n processors.
func telemetryPlan(t *testing.T, n int) (*netmodel.Perf, *Plan) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	perf := netmodel.RandomPerf(rng, n, netmodel.GustoGuided())
	m, err := model.Build(perf, model.UniformSizes(n, 1<<18))
	if err != nil {
		t.Fatal(err)
	}
	r, err := sched.NewOpenShop().Schedule(m)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := PlanFromSchedule(r.Schedule, model.UniformSizes(n, 1<<18))
	if err != nil {
		t.Fatal(err)
	}
	return perf, plan
}

// checkLog checks a checkpoint log against its run: one entry per
// checkpoint, in time order within the run, each leaving half of the
// events the previous one did (the Halving policy), with the replanned
// flag equal to want.
func checkLog(t *testing.T, log []Checkpoint, checkpoints, events int, finish float64, want bool) {
	t.Helper()
	if checkpoints == 0 {
		t.Fatal("halving policy took no checkpoints")
	}
	if len(log) != checkpoints {
		t.Fatalf("log has %d entries, result reports %d checkpoints", len(log), checkpoints)
	}
	prevAt, left := 0.0, events
	for i, c := range log {
		left /= 2
		if c.Remaining != left {
			t.Errorf("checkpoint %d: %d remaining, want %d", i, c.Remaining, left)
		}
		if c.At < prevAt || c.At > finish {
			t.Errorf("checkpoint %d at %g s, outside [%g, %g]", i, c.At, prevAt, finish)
		}
		if c.Replanned != want {
			t.Errorf("checkpoint %d: replanned %v, want %v", i, c.Replanned, want)
		}
		prevAt = c.At
	}
}

// TestCheckpointedTelemetry: checkpointed mode logs every checkpoint it
// reports, and replans the tail at each one.
func TestCheckpointedTelemetry(t *testing.T) {
	perf, plan := telemetryPlan(t, 5)
	net := NewStatic(perf)
	observe := func(float64) *netmodel.Perf { return perf }
	ck, err := RunCheckpointed(net, observe, plan, Halving{}, ReplanOpenShop)
	if err != nil {
		t.Fatal(err)
	}
	checkLog(t, ck.Log, ck.Checkpoints, plan.Events(), ck.Finish, true)
}

// TestReactiveTelemetry: with no fault times, every checkpoint is
// logged but nothing is replanned.
func TestReactiveTelemetry(t *testing.T) {
	perf, plan := telemetryPlan(t, 5)
	net := NewStatic(perf)
	observe := func(float64) *netmodel.Perf { return perf }
	rr, err := RunReactive(net, observe, nil, plan, Halving{}, ReplanOpenShop)
	if err != nil {
		t.Fatal(err)
	}
	if rr.Replans != 0 {
		t.Errorf("%d replans with no faults", rr.Replans)
	}
	checkLog(t, rr.Log, rr.Checkpoints, plan.Events(), rr.Finish, false)
}
