package comm

import (
	"context"

	"hetsched/internal/model"
	"hetsched/internal/sched"
)

// memoEntry is the repeated-exchange memo: the cost matrix of the last
// round planned above the degraded rung and the (untagged) plan it got.
// An entry is never mutated once installed — a changed round replaces
// it whole — so readers need the lock only to load the pointer.
type memoEntry struct {
	matrix *model.Matrix
	result *sched.Result
}

// PlanScratch is the caller-owned memory of the repeated-exchange path:
// the buffer each round's cost matrix is built into and the slot the
// served result is assembled in. With the network unchanged since the
// last planned round, a call through it allocates nothing. The zero
// value is ready to use; a PlanScratch is not safe for concurrent use.
type PlanScratch struct {
	matrix model.Matrix
	result sched.Result
}

// AllToAllRepeated plans a total exchange for a workload that repeats
// (§6.2's sensor-style applications): AllToAll with a one-entry memo. A
// round whose cost matrix equals the memo's is re-served the memo's
// plan, tagged with this round's rung; a round whose matrix changed
// plans with the configured scheduler exactly as AllToAll does, and
// becomes the memo. The degraded rung plans the blind baseline every
// time and leaves the memo alone, so a recovery onto an unchanged
// network re-serves the pre-outage plan.
//
// The result's Schedule and Steps may be shared with the memo and with
// other callers' results: treat them as read-only.
func (c *Communicator) AllToAllRepeated(sizes *model.Sizes) (*sched.Result, error) {
	r, err := c.AllToAllRepeatedScratch(sizes, new(PlanScratch))
	if err != nil {
		return nil, err
	}
	out := *r
	return &out, nil
}

// AllToAllRepeatedScratch is AllToAllRepeated with caller-owned
// scratch: the cost matrix is rebuilt into sc, and when it equals the
// memo's the memo's plan is served from sc without touching the heap.
// The returned result is valid only until the next call with the same
// scratch.
//
//hetvet:hotpath the zero-alloc unchanged round (see TestRepeatedScratchZeroAlloc)
func (c *Communicator) AllToAllRepeatedScratch(sizes *model.Sizes, sc *PlanScratch) (*sched.Result, error) {
	m, h, err := c.snapshotMatrix(sizes, &sc.matrix)
	if err != nil {
		return nil, err
	}
	var plan *sched.Result
	if h != HealthDegraded {
		c.mu.Lock()
		last := c.memo
		c.mu.Unlock()
		if last != nil && last.matrix.Equal(m) {
			plan = last.result
		}
	}
	if plan == nil {
		if plan, err = c.planRepeated(m, h); err != nil {
			return nil, err
		}
	}
	c.noteServed(context.Background(), h)
	sc.result = *plan
	return tagResult(&sc.result, h), nil
}

// planRepeated plans a round the memo cannot serve and, above the
// degraded rung, installs it as the new memo.
//
//hetvet:coldpath a changed or degraded round plans cold, which allocates by design
func (c *Communicator) planRepeated(m *model.Matrix, h Health) (*sched.Result, error) {
	r, err := c.schedule(context.Background(), m, h, "repeated")
	if err != nil || h == HealthDegraded {
		return r, err
	}
	entry := &memoEntry{matrix: m.Clone(), result: r}
	c.mu.Lock()
	c.memo = entry
	c.mu.Unlock()
	return r, nil
}
