package sim

import (
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
	times := append([]float64(nil), faultTimes...)
	sort.Float64s(times)
	next := 0
	for next < len(times) && times[next] <= 0 {
		next++
	}
	// The tail is replanned only when a fault fired since the previous
	// checkpoint, against the degraded conditions the directory shows.
	return runPhases(net, observe, plan, policy, replan, func(when float64) bool {
		fired := false
		for next < len(times) && times[next] <= when {
			next++
			fired = true
		}
		return fired
	})
}
