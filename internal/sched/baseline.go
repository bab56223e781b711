package sched

import (
	"hetsched/internal/model"
	"hetsched/internal/timing"
)

// Baseline is the caterpillar algorithm of Section 4.2, "widely used
// in tightly coupled homogeneous systems": the schedule has P steps and
// in step j every processor Pi sends to P(i+j) mod P. In a homogeneous
// system the steps are contention-free and perfectly packed; under
// heterogeneity long events in early steps delay all later steps, and
// Theorem 2 shows the completion time can reach (P/2)·t_lb.
//
// The schedule is fixed — it ignores the matrix entries entirely —
// which is exactly the non-adaptivity the paper criticizes.
type Baseline struct{}

// Name implements Scheduler.
func (Baseline) Name() string { return "baseline" }

// Schedule implements Scheduler.
func (Baseline) Schedule(m *model.Matrix) (*Result, error) {
	return finishResult(Baseline{}.Name(), caterpillar(m.N()), m)
}

// caterpillar returns the baseline's steps for n processors. Step
// j = 0 would be the self message, which is free and omitted.
func caterpillar(n int) *timing.StepSchedule {
	ss := &timing.StepSchedule{N: n}
	for j := 1; j < n; j++ {
		step := make(timing.Step, 0, n)
		for i := 0; i < n; i++ {
			step = append(step, timing.Pair{Src: i, Dst: (i + j) % n})
		}
		ss.Steps = append(ss.Steps, step)
	}
	return ss
}
