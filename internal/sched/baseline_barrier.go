package sched

import (
	"fmt"

	"hetsched/internal/model"
)

// BaselineBarrier is the caterpillar schedule executed in lockstep: a
// synchronization after every step, the way homogeneous collective
// libraries realize the algorithm in practice (every processor
// performs step j together). Under heterogeneity each step costs its
// slowest event, so the completion time is the sum of per-step maxima
// — considerably worse than the asynchronous Baseline, and the variant
// against which the paper's largest improvements (factors of 2–6)
// appear. Kept both as a reproduction subject and as the
// barrier-vs-asynchronous ablation of DESIGN.md.
type BaselineBarrier struct{}

// Name implements Scheduler.
func (BaselineBarrier) Name() string { return "baseline-barrier" }

// Schedule implements Scheduler.
func (BaselineBarrier) Schedule(m *model.Matrix) (*Result, error) {
	ss := caterpillar(m.N())
	s, err := ss.EvaluateBarrier(m)
	if err != nil {
		return nil, fmt.Errorf("sched: baseline-barrier: %w", err)
	}
	return &Result{Algorithm: BaselineBarrier{}.Name(), Steps: ss, Schedule: s, LowerBound: m.LowerBound()}, nil
}
