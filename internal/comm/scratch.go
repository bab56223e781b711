package comm

import (
	"context"
	"fmt"

	"hetsched/internal/incremental"
	"hetsched/internal/model"
	"hetsched/internal/sched"
	"hetsched/internal/timing"
)

// PlanScratch owns every buffer the repeated-exchange planning path
// needs — the built cost matrix, a warm-started step planner for the
// repair scheduler, the incremental-repair scratch, and the evaluation
// buffers that render the served schedule — so a steady-state replan
// performs zero heap allocations. The zero value is ready to use. A
// PlanScratch is not safe for concurrent use; AllToAllRepeated draws
// equivalent scratches from a per-communicator pool, and callers that
// want the allocation-free path hold their own and call
// AllToAllRepeatedScratch.
type PlanScratch struct {
	// owner is the communicator the planner below was built for.
	// Scratches from the internal pool never change owners; an
	// explicitly held PlanScratch that moves between communicators is
	// rebound (and its warm state dropped) on first use.
	owner   *Communicator
	planner *sched.Planner // nil when the repair scheduler has no planning fast path

	refine   incremental.Scratch
	matrix   model.Matrix
	repaired timing.StepSchedule
	eval     timing.EvalScratch
	schedule timing.Schedule
	result   sched.Result
}

// init binds the scratch to a communicator's repair scheduler.
func (sc *PlanScratch) init(c *Communicator) {
	if sc.owner == c {
		return
	}
	sc.owner = c
	sc.planner = sched.NewPlanner(c.cfg.RepairScheduler)
	sc.refine.Invalidate()
}

// snapshotMatrixScratch is snapshotMatrix building into the scratch
// matrix.
func (c *Communicator) snapshotMatrixScratch(sizes *model.Sizes, sc *PlanScratch) (*model.Matrix, Health, error) {
	perf, h, err := c.ladderTable(sizes)
	if err != nil {
		return nil, h, err
	}
	return &sc.matrix, h, model.BuildInto(&sc.matrix, perf, sizes)
}

// AllToAllRepeatedScratch is AllToAllRepeated with caller-owned
// scratch. Served results, stats, health transitions and errors are
// identical (TestRepeatedScratchMatchesRepeated pins this); the
// difference is purely operational: with the network unchanged since
// the last call, the replan runs allocation-free — the model is
// rebuilt into scratch, recognized as equal to the cached one, and the
// cached schedule is re-served without touching the heap.
//
// The returned result is valid only until the next call with the same
// scratch: its Schedule lives in scratch memory, and its Steps may
// alias the communicator's internal cache (which is never mutated, so
// concurrent readers are safe — reuse is the only hazard).
//
//hetvet:hotpath the zero-alloc replan entry point (see BenchmarkAllToAllRepeatedScratch)
func (c *Communicator) AllToAllRepeatedScratch(sizes *model.Sizes, sc *PlanScratch) (*sched.Result, error) {
	sc.init(c)
	m, h, err := c.snapshotMatrixScratch(sizes, sc)
	if err != nil {
		return nil, err
	}
	if h == HealthDegraded {
		// As in AllToAllRepeated: plan the blind baseline without
		// touching the repair cache.
		r, err := c.timedSchedule(context.Background(), c.cfg.BaselineScheduler, m, "repeated")
		if err != nil {
			return nil, err
		}
		c.mu.Lock()
		c.stats.Plans++
		c.mu.Unlock()
		c.tel.plans.Inc()
		c.noteServed(context.Background(), h)
		return tagResult(r, h), nil
	}
	c.noteServed(context.Background(), h)
	c.mu.Lock()
	gen, steps, last := c.planGen, c.lastSteps, c.lastMatrix
	c.mu.Unlock()
	// With telemetry disabled the closures are skipped entirely: a
	// heap-allocated closure per call would break the zero-alloc
	// contract the scratch path exists for.
	var r *sched.Result
	if steps == nil || last == nil {
		if c.tel.enabled {
			//hetvet:ignore hotpath the closure is built only with telemetry enabled; the disabled branch below is the zero-alloc one
			r, err = c.timedResult(context.Background(), "repeated", func() (*sched.Result, error) {
				return c.planRepeatedScratch(m, sc)
			})
		} else {
			r, err = c.planRepeatedScratch(m, sc)
		}
	} else {
		if c.tel.enabled {
			//hetvet:ignore hotpath the closure is built only with telemetry enabled; the disabled branch below is the zero-alloc one
			r, err = c.timedResult(context.Background(), "repair", func() (*sched.Result, error) {
				return c.repairScratch(gen, steps, last, m, sc)
			})
		} else {
			r, err = c.repairScratch(gen, steps, last, m, sc)
		}
	}
	if err != nil {
		return nil, err
	}
	return tagResult(r, h), nil
}

// repairScratch serves one repeated exchange from the cached schedule:
// the steady-state short circuit when the model is unchanged, an
// incremental repair when it drifted, a recompute when repair would
// not pay, and a fresh plan when an Invalidate raced the repair.
func (c *Communicator) repairScratch(gen uint64, steps *timing.StepSchedule, last, m *model.Matrix, sc *PlanScratch) (*sched.Result, error) {
	if last.Equal(m) {
		// Unchanged model: a repair would mark nothing dirty and
		// republish an identical schedule, so serve the cached steps
		// directly. The generation check mirrors installRepaired — if an
		// Invalidate landed since the cache was read, that lineage is
		// dropped and the call replans fresh.
		c.mu.Lock()
		if c.planGen == gen {
			c.stats.Repairs++
			c.mu.Unlock()
			c.tel.repairs.Inc()
			return c.finishScratch(c.repairName, steps, m, sc)
		}
		c.mu.Unlock()
		return c.planRepeatedScratch(m, sc)
	}
	st, err := incremental.RefineInto(&sc.repaired, &sc.refine, steps, last, m,
		incremental.Options{Threshold: c.cfg.RepairThreshold, Max: true})
	if err != nil {
		return nil, err
	}
	if st.Steps > 0 && float64(st.DirtySteps) > c.cfg.RecomputeFraction*float64(st.Steps) {
		c.mu.Lock()
		c.stats.Recomputes++
		c.mu.Unlock()
		c.tel.recomputes.Inc()
		return c.planRepeatedScratch(m, sc)
	}
	// The cache and the served result must outlive the scratch, so the
	// repaired steps (and the scratch-built matrix) are copied out —
	// the price of an actual drift repair, never of the steady state.
	repaired := sc.repaired.Clone()
	if !c.installRepaired(gen, m.Clone(), repaired) {
		return c.planRepeatedScratch(m, sc)
	}
	c.tel.repairs.Inc()
	return c.finishScratch(c.repairName, repaired, m, sc)
}

// planRepeatedScratch is planRepeated planning through the scratch's
// warm-started planner when the repair scheduler has one.
func (c *Communicator) planRepeatedScratch(m *model.Matrix, sc *PlanScratch) (*sched.Result, error) {
	c.mu.Lock()
	gen := c.planGen
	c.mu.Unlock()
	var steps *timing.StepSchedule
	if sc.planner != nil {
		if err := sc.planner.PlanInto(&sc.repaired, m); err != nil {
			return nil, err
		}
		steps = sc.repaired.Clone()
	} else {
		// No planning fast path for this scheduler: plan cold, exactly
		// as planRepeated does.
		r, err := c.cfg.RepairScheduler.Schedule(m)
		if err != nil {
			return nil, err
		}
		if r.Steps == nil {
			return nil, fmt.Errorf("comm: repair scheduler %q produced no step structure", c.cfg.RepairScheduler.Name())
		}
		steps = r.Steps
	}
	mc := m.Clone() // the cache must own its matrix; m is scratch-backed
	c.mu.Lock()
	c.stats.Plans++
	if c.planGen == gen {
		c.lastMatrix = mc
		c.lastSteps = steps
	}
	c.mu.Unlock()
	c.tel.plans.Inc()
	return c.finishScratch(c.cfg.RepairScheduler.Name(), steps, m, sc)
}

// finishScratch renders steps into the scratch schedule and assembles
// the served result in scratch memory.
func (c *Communicator) finishScratch(name string, steps *timing.StepSchedule, m *model.Matrix, sc *PlanScratch) (*sched.Result, error) {
	if err := steps.EvaluateInto(&sc.schedule, m, &sc.eval); err != nil {
		return nil, err
	}
	sc.result = sched.Result{
		Algorithm:  name,
		Steps:      steps,
		Schedule:   &sc.schedule,
		LowerBound: m.LowerBound(),
	}
	return &sc.result, nil
}
