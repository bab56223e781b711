// Package sched implements the paper's communication scheduling
// algorithms for total exchange (all-to-all personalized
// communication) on heterogeneous networks — the primary contribution
// of the paper (Section 4).
//
// Six schedulers are provided:
//
//   - Baseline: the caterpillar algorithm used in homogeneous systems
//     (step j: Pi sends to P(i+j) mod P). Completion is within (P/2)·t_lb
//     and that bound is tight (Theorem 2).
//   - BaselineBarrier: the same steps run in lockstep, a barrier after
//     each.
//   - MaxMatching / MinMatching: decompose the P×P events into P
//     contention-free steps via successive maximum- (or minimum-)
//     weight perfect matchings in a bipartite graph, O(P⁴).
//   - Greedy: an O(P³) approximation of the matching approach using
//     rank-ordered destination lists with rotating pick priority.
//   - OpenShop: a list-scheduling heuristic derived from open shop
//     scheduling; its completion time is within twice the lower bound
//     (Theorem 3). O(P³), as the paper states it and in the kernel
//     shared with PartialOpenShop and PartialOpenShopFrom, which makes
//     the same picks from a winner tree of senders and a sorted array
//     of receivers.
//
// Every scheduler consumes a model.Matrix (sender-major communication
// times) and produces a timed schedule plus the step structure when one
// exists. Scheduling the problem is NP-complete for P > 2 (Theorem 1),
// so all of these are heuristics; the paper's simulation results on
// which one wins are reproduced by the bench harness.
package sched

import (
	"fmt"
	"sort"

	"hetsched/internal/model"
	"hetsched/internal/timing"
)

// Result is the output of a scheduler on one problem instance.
type Result struct {
	Algorithm  string
	Steps      *timing.StepSchedule // step structure; nil for schedulers that emit times directly
	Schedule   *timing.Schedule     // the timed schedule
	LowerBound float64              // t_lb of the input matrix
}

// CompletionTime returns t_max of the produced schedule.
func (r *Result) CompletionTime() float64 { return r.Schedule.CompletionTime() }

// Ratio returns t_max / t_lb, the schedule quality measure used
// throughout the paper's evaluation. A zero lower bound (empty
// problem) reports a ratio of 1.
func (r *Result) Ratio() float64 {
	if r.LowerBound == 0 {
		return 1
	}
	return r.CompletionTime() / r.LowerBound
}

// Scheduler produces a total-exchange communication schedule for a
// communication-time matrix.
//
// Implementations must be safe for concurrent use: Schedule must not
// mutate the receiver, the input matrix, or any state shared between
// calls, so one scheduler value may plan for many goroutines at once
// (the parallel experiment engine and a comm.Communicator shared by
// concurrent callers rely on this). All schedulers in this package are stateless values
// whose working state lives on the call stack; randomized ones
// (MultiStartOpenShop) derive a fresh rand.Rand per call from their
// configured seed, so they are both concurrent-safe and deterministic.
type Scheduler interface {
	// Name identifies the algorithm in reports and registries.
	Name() string
	// Schedule computes a schedule for the matrix. Implementations
	// must return a schedule that passes
	// timing.Schedule.ValidateTotalExchange against m, and must be
	// callable concurrently from multiple goroutines. The matrix is
	// valid only for the duration of the call: the caller may rebuild
	// it for another plan as soon as Schedule returns, so neither the
	// implementation nor its Result may keep it. A cost that is NaN,
	// infinite or negative is an error. The events are a pair sequence
	// in the order they were timed: timing.Replay of their (Src, Dst)
	// order returns them exactly (BaselineBarrier, the lockstep
	// ablation, excepted), so sender columns are read in that order
	// unsorted. Result.Steps stays beside it, because bench/ reads a
	// step scheduler's steps and times their Evaluate.
	Schedule(m *model.Matrix) (*Result, error)
}

// Scratch is caller-owned memory to plan in: the result, its schedule
// and event slice, and the open shop kernel's working slab. A result
// planned in a Scratch is valid until the next plan in it, so a caller
// that keeps a plan takes it from Schedule instead. The zero value is
// ready to use; a Scratch is not safe for concurrent use.
type Scratch struct {
	result   Result
	schedule timing.Schedule
	events   []timing.Event
	slab     []uint64
}

// scratchScheduler is a Scheduler that can plan in a Scratch.
type scratchScheduler interface {
	scheduleIn(m *model.Matrix, sc *Scratch) (*Result, error)
}

// ScheduleIn plans m with s in sc's memory when s can (today OpenShop)
// and sc is not nil, and returns s.Schedule(m) otherwise. Either way
// the plan is the one s.Schedule(m) returns, event for event; one
// planned in sc is overwritten by the next plan in sc.
func ScheduleIn(s Scheduler, m *model.Matrix, sc *Scratch) (*Result, error) {
	if in, ok := s.(scratchScheduler); ok && sc != nil {
		return in.scheduleIn(m, sc)
	}
	return s.Schedule(m)
}

// All returns one instance of every scheduler in the paper, in the
// order the evaluation section lists them: baseline, baseline with
// barriers, max matching, min matching, greedy, open shop.
func All() []Scheduler {
	return []Scheduler{
		Baseline{},
		BaselineBarrier{},
		MaxMatching{},
		MinMatching{},
		NewGreedy(),
		NewOpenShop(),
	}
}

// ByName returns the scheduler with the given Name from All.
func ByName(name string) (Scheduler, error) {
	for _, s := range All() {
		if s.Name() == name {
			return s, nil
		}
	}
	var names []string
	for _, s := range All() {
		names = append(names, s.Name())
	}
	sort.Strings(names)
	return nil, fmt.Errorf("sched: unknown scheduler %q (have %v)", name, names)
}

// finishResult packages a step schedule into a Result by evaluating it
// under the asynchronous semantics and attaching the lower bound.
func finishResult(name string, ss *timing.StepSchedule, m *model.Matrix) (*Result, error) {
	s, err := ss.Evaluate(m)
	if err != nil {
		return nil, fmt.Errorf("sched: %s: %w", name, err)
	}
	return &Result{Algorithm: name, Steps: ss, Schedule: s, LowerBound: m.LowerBound()}, nil
}
