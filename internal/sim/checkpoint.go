package sim

import (
	"fmt"
	"math"
	"sort"

	"hetsched/internal/model"
	"hetsched/internal/netmodel"
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
// heuristic generalized to partial communication patterns: senders are
// repeatedly given their earliest-available remaining receiver, using
// communication times computed from the fresh performance estimate and
// starting from the actual mid-flight availability of every processor.
// (The paper's open shop scheduler is the best performer on full total
// exchange; the generalization to arbitrary remaining sets is direct —
// each sender's receiver set simply starts smaller and its clock does
// not start at zero.)
func ReplanOpenShop(perf *netmodel.Perf, remaining *Plan, st *State, _ float64) (*Plan, error) {
	if perf.N() != remaining.N {
		return nil, fmt.Errorf("sim: estimate covers %d processors, plan %d", perf.N(), remaining.N)
	}
	n := remaining.N
	cost := model.NewMatrix(n)
	pend := make([][]bool, n)
	counts := make([]int, n)
	total := 0
	for i := 0; i < n; i++ {
		pend[i] = make([]bool, n)
		for _, j := range remaining.Order[i] {
			pend[i][j] = true
			counts[i]++
			total++
			cost.Set(i, j, perf.TransferTime(i, j, remaining.Sizes.At(i, j)))
		}
	}
	sendAvail := make([]float64, n)
	recvAvail := make([]float64, n)
	if st != nil {
		copy(sendAvail, st.SendFree)
		copy(recvAvail, st.RecvFree)
	}
	order := make([][]int, n)
	for total > 0 {
		i := -1
		for s := 0; s < n; s++ {
			if counts[s] == 0 {
				continue
			}
			if i < 0 || sendAvail[s] < sendAvail[i] {
				i = s
			}
		}
		j := -1
		for r := 0; r < n; r++ {
			if pend[i][r] && (j < 0 || recvAvail[r] < recvAvail[j]) {
				j = r
			}
		}
		start := math.Max(sendAvail[i], recvAvail[j])
		fin := start + cost.At(i, j)
		sendAvail[i], recvAvail[j] = fin, fin
		pend[i][j] = false
		counts[i]--
		total--
		order[i] = append(order[i], j)
	}
	out := &Plan{N: n, Sizes: remaining.Sizes.Clone(), Order: order}
	if err := out.Validate(); err != nil {
		return nil, err
	}
	return out, nil
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

// SortedPairs returns the plan's sends as deterministic (src, dst)
// pairs, useful for comparing replanner outputs in tests.
func (p *Plan) SortedPairs() []timing.Pair {
	var out []timing.Pair
	for i, dsts := range p.Order {
		for _, j := range dsts {
			out = append(out, timing.Pair{Src: i, Dst: j})
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Src != out[b].Src {
			return out[a].Src < out[b].Src
		}
		return out[a].Dst < out[b].Dst
	})
	return out
}
