package sim

import (
	"fmt"
	"math"

	"hetsched/internal/model"
	"hetsched/internal/netmodel"
	"hetsched/internal/sched"
	"hetsched/internal/timing"
)

// Section 6.3: enhancing the adaptivity of schedules. When network
// performance drifts faster than a whole exchange completes, an
// initial schedule computed from estimates is refined at intermediate
// checkpoints: execution pauses dispatching, the directory is queried
// for fresh conditions, and the remaining events are rescheduled. The
// paper proposes checkpoints after every k events (O(P) checkpoints)
// or after half of the remaining events (O(log P) checkpoints); both
// policies are implemented here. Processor availability carries across
// checkpoints, so rescheduling inserts no barrier.

// CheckpointPolicy decides how many transfers to dispatch before the
// next checkpoint.
type CheckpointPolicy interface {
	// NextBudget returns how many transfers to dispatch in the coming
	// phase given how many remain. Results < 1 are treated as 1.
	NextBudget(remaining int) int
	// Name identifies the policy in reports.
	Name() string
}

// NoCheckpoints runs the whole plan in one phase.
type NoCheckpoints struct{}

// NextBudget implements CheckpointPolicy.
func (NoCheckpoints) NextBudget(remaining int) int { return remaining }

// Name implements CheckpointPolicy.
func (NoCheckpoints) Name() string { return "none" }

// EveryEvents checkpoints after each batch of K dispatched transfers —
// the paper's O(P) checkpoint flavour when K is O(P).
type EveryEvents struct{ K int }

// NextBudget implements CheckpointPolicy.
func (e EveryEvents) NextBudget(remaining int) int { return e.K }

// Name implements CheckpointPolicy.
func (e EveryEvents) Name() string { return fmt.Sprintf("every-%d", e.K) }

// Halving checkpoints after half of the remaining events complete —
// the paper's O(log P) checkpoint flavour.
type Halving struct{}

// NextBudget implements CheckpointPolicy.
func (Halving) NextBudget(remaining int) int { return (remaining + 1) / 2 }

// Name implements CheckpointPolicy.
func (Halving) Name() string { return "halving" }

// Replanner reorders the remaining sends given a fresh performance
// estimate from the directory, the processor availability carried over
// from the executed prefix, and the checkpoint time. It must return a
// plan over exactly the same (sender, destination) multiset it was
// given.
type Replanner func(perf *netmodel.Perf, remaining *Plan, st *State, now float64) (*Plan, error)

// KeepOrder is the identity replanner: the control arm that pays for
// checkpoints but never adapts.
func KeepOrder(_ *netmodel.Perf, remaining *Plan, _ *State, _ float64) (*Plan, error) {
	return remaining.Clone(), nil
}

// ReplanOpenShop reschedules the remaining sends with the open shop
// heuristic over the remaining pairs (sched.PartialOpenShopFrom): its
// communication times come from the fresh performance estimate, and
// every port starts from its actual mid-flight availability in st (a
// nil st starts them at 0). A time that is not finite and
// non-negative, or a State not sized for the plan, is an error.
func ReplanOpenShop(perf *netmodel.Perf, remaining *Plan, st *State, _ float64) (*Plan, error) {
	if perf.N() != remaining.N {
		return nil, fmt.Errorf("sim: estimate covers %d processors, plan %d", perf.N(), remaining.N)
	}
	if err := remaining.Validate(); err != nil {
		return nil, err
	}
	n := remaining.N
	cost := model.NewMatrix(n)
	var pattern sched.Pattern
	for i, dsts := range remaining.Order {
		for _, j := range dsts {
			pattern = append(pattern, timing.Pair{Src: i, Dst: j})
			cost.Set(i, j, perf.TransferTime(i, j, remaining.Sizes.At(i, j)))
		}
	}
	var sendFree, recvFree []float64
	if st != nil {
		sendFree, recvFree = st.SendFree, st.RecvFree
	}
	r, err := sched.PartialOpenShopFrom(cost, pattern, sendFree, recvFree)
	if err != nil {
		return nil, fmt.Errorf("sim: replan: %w", err)
	}
	order := make([][]int, n)
	for _, e := range r.Schedule.Events {
		order[e.Src] = append(order[e.Src], e.Dst)
	}
	return &Plan{N: n, Sizes: remaining.Sizes.Clone(), Order: order}, nil
}

// Checkpoint is one checkpoint of a checkpointed or reactive run.
type Checkpoint struct {
	At        float64 // simulated seconds: when the last dispatched transfer completed
	Remaining int     // events still undispatched
	Replanned bool    // whether the tail was rescheduled here
}

// CheckpointResult reports a checkpointed execution.
type CheckpointResult struct {
	Schedule    *timing.Schedule // all executed events with actual times
	Finish      float64
	Checkpoints int          // how many times the directory was queried and the tail replanned
	Log         []Checkpoint // one entry per checkpoint, in order; every one replanned
}

// RunCheckpointed executes the plan on net, dispatching in phases set
// by the policy and replanning the undispatched tail at each
// checkpoint using the observe function (a directory query: it returns
// the performance estimate visible at the given time). Passing
// NoCheckpoints with any replanner is equivalent to Run.
func RunCheckpointed(net Network, observe func(t float64) *netmodel.Perf, plan *Plan, policy CheckpointPolicy, replan Replanner) (*CheckpointResult, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	if observe == nil {
		return nil, fmt.Errorf("sim: observe function is required")
	}
	cur := plan.Clone()
	st := NewState(plan.N)
	out := &timing.Schedule{N: plan.N}
	res := &CheckpointResult{Schedule: out}
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
			return nil, fmt.Errorf("sim: checkpoint phase made no progress with %d events left", cur.Events())
		}
		// Checkpoint: query the directory at the moment the last
		// dispatched transfer completed and reschedule the tail.
		when := maxFloat(st.SendFree)
		cur, err = replan(observe(when), phase.Remaining, st.Clone(), when)
		if err != nil {
			return nil, err
		}
		if cur.Events() != phase.Remaining.Events() {
			return nil, fmt.Errorf("sim: replanner changed the event count from %d to %d",
				phase.Remaining.Events(), cur.Events())
		}
		res.Checkpoints++
		res.Log = append(res.Log, Checkpoint{At: when, Remaining: cur.Events(), Replanned: true})
	}
	return res, nil
}

func maxFloat(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	if math.IsInf(m, -1) {
		return 0
	}
	return m
}
