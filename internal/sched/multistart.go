package sched

import (
	"fmt"
	"math/rand"

	"hetsched/internal/model"
)

// MultiStartOpenShop runs the open shop heuristic several times with
// the processors randomly relabelled and keeps the best schedule. The
// paper notes that simultaneously available senders are "processed in
// an arbitrary order"; the kernel settles every such tie by id, so a
// relabelling settles them differently. That arbitrariness is free
// optimization headroom: different orders explore different schedules
// at O(P³) each, and the best of k restarts tightens the usual 0–2% gap
// to the lower bound further. The deterministic OpenShop is the k=1
// special case.
type MultiStartOpenShop struct {
	// Restarts is the number of runs (≥ 1), the first unrelabelled.
	Restarts int
	// Seed makes the relabellings reproducible.
	Seed int64
}

// NewMultiStartOpenShop returns a best-of-8 multi-start scheduler.
func NewMultiStartOpenShop(seed int64) MultiStartOpenShop {
	return MultiStartOpenShop{Restarts: 8, Seed: seed}
}

// Name implements Scheduler.
func (ms MultiStartOpenShop) Name() string {
	return fmt.Sprintf("openshop-x%d", ms.Restarts)
}

// Schedule implements Scheduler.
func (ms MultiStartOpenShop) Schedule(m *model.Matrix) (*Result, error) {
	if ms.Restarts < 1 {
		return nil, fmt.Errorf("sched: multi-start needs ≥ 1 restart, got %d", ms.Restarts)
	}
	// The first start is the deterministic heuristic, so the multi-start
	// result can never lose to it.
	best, err := NewOpenShop().Schedule(m)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(ms.Seed))
	n := m.N()
	relabelled := model.NewMatrix(n)
	for k := 1; k < ms.Restarts; k++ {
		// Processor a of the relabelled matrix is processor perm[a] of m.
		perm := rng.Perm(n)
		for a, i := range perm {
			for b, j := range perm {
				relabelled.Set(a, b, m.At(i, j))
			}
		}
		r, err := NewOpenShop().Schedule(relabelled)
		if err != nil {
			return nil, err
		}
		if r.CompletionTime() < best.CompletionTime() {
			for e := range r.Schedule.Events {
				ev := &r.Schedule.Events[e]
				ev.Src, ev.Dst = perm[ev.Src], perm[ev.Dst]
			}
			best = r
		}
	}
	return &Result{Algorithm: ms.Name(), Schedule: best.Schedule, LowerBound: m.LowerBound()}, nil
}
