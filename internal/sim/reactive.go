package sim

import (
	"fmt"
	"sort"

	"hetsched/internal/netmodel"
	"hetsched/internal/timing"
)

// Reactive execution: the robustness counterpart of checkpoint.go.
// Where RunCheckpointed replans at every checkpoint on the assumption
// that conditions drift continuously, RunReactive is built for the
// wide-area failure mode — a link degrades or fails at a discrete
// moment — and replans the undispatched tail only when a fault event
// has actually fired since the previous checkpoint. Unaffected runs
// pay only the (cheap) checkpoint bookkeeping, never the rescheduling.

// ReactiveResult reports an event-driven execution.
type ReactiveResult struct {
	Schedule    *timing.Schedule // all executed events with actual times
	Finish      float64
	Checkpoints int          // phases executed (dispatch pauses)
	Replans     int          // checkpoints at which a fault had fired and the tail was replanned
	Log         []Checkpoint // one entry per checkpoint, in order
}

// RunReactive executes the plan in checkpointed phases set by the
// policy, replanning the tail with replan only when one of faultTimes
// (e.g. faults.Network.Times) falls inside the window since the last
// checkpoint; otherwise the remaining sends keep their order. Fault
// times at or before 0 are considered already reflected in the
// original plan. Processor availability carries across phases, so
// rescheduling inserts no barrier.
func RunReactive(net Network, observe func(t float64) *netmodel.Perf, faultTimes []float64, plan *Plan, policy CheckpointPolicy, replan Replanner) (*ReactiveResult, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	if observe == nil {
		return nil, fmt.Errorf("sim: observe function is required")
	}
	times := append([]float64(nil), faultTimes...)
	sort.Float64s(times)
	next := 0
	for next < len(times) && times[next] <= 0 {
		next++
	}

	cur := plan.Clone()
	st := NewState(plan.N)
	out := &timing.Schedule{N: plan.N}
	res := &ReactiveResult{Schedule: out}
	for cur.Events() > 0 {
		budget := policy.NextBudget(cur.Events())
		if budget < 1 {
			budget = 1
		}
		phase, err := RunBudget(net, cur, st, budget)
		if err != nil {
			return nil, err
		}
		out.Events = append(out.Events, phase.Schedule.Events...)
		if phase.Finish > res.Finish {
			res.Finish = phase.Finish
		}
		st = phase.State
		if phase.Remaining == nil {
			break
		}
		if phase.Dispatched == 0 {
			return nil, fmt.Errorf("sim: reactive phase made no progress with %d events left", cur.Events())
		}
		res.Checkpoints++
		when := maxFloat(st.SendFree)
		fired := false
		for next < len(times) && times[next] <= when {
			next++
			fired = true
		}
		if !fired {
			cur = phase.Remaining
			res.Log = append(res.Log, Checkpoint{At: when, Remaining: cur.Events()})
			continue
		}
		// A fault fired mid-phase: query the directory for the degraded
		// conditions and reschedule the tail around them.
		cur, err = replan(observe(when), phase.Remaining, st.Clone(), when)
		if err != nil {
			return nil, err
		}
		if cur.Events() != phase.Remaining.Events() {
			return nil, fmt.Errorf("sim: replanner changed the event count from %d to %d",
				phase.Remaining.Events(), cur.Events())
		}
		res.Replans++
		res.Log = append(res.Log, Checkpoint{At: when, Remaining: cur.Events(), Replanned: true})
	}
	return res, nil
}
