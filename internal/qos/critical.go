package qos

import (
	"fmt"
	"sort"

	"hetsched/internal/model"
	"hetsched/internal/sched"
	"hetsched/internal/timing"
)

// Critical-resource scheduling (Section 6.4): one processor in the
// heterogeneous system — an expensive supercomputer, say — should
// complete all of its communication as early as possible, even if that
// delays the others. The scheduler runs two phases: first it greedily
// packs every event that touches the critical processor (its sends and
// its receives), then the open shop heuristic fills in the remaining
// events around them.

// CriticalResult reports a critical-resource schedule.
type CriticalResult struct {
	Schedule *timing.Schedule
	// CriticalDone is when the critical processor finished its last
	// send or receive.
	CriticalDone float64
}

// ScheduleCritical builds a total-exchange schedule for the matrix
// that releases processor critical as early as possible.
func ScheduleCritical(m *model.Matrix, critical int) (*CriticalResult, error) {
	n := m.N()
	if critical < 0 || critical >= n {
		return nil, fmt.Errorf("qos: critical processor %d out of range for P=%d", critical, n)
	}
	// Phase 1: the critical processor's own events. Its sends and
	// receives interleave freely (they use different ports), so pack
	// each list longest first to minimize its completion: the critical
	// column is then fully dense — its completion equals its own work,
	// the best possible.
	seq := make([]timing.Pair, 0, 2*(n-1))
	for k := 0; k < n; k++ {
		if k != critical {
			seq = append(seq, timing.Pair{Src: critical, Dst: k})
		}
	}
	for _, p := range seq[:n-1] {
		seq = append(seq, timing.Pair{Src: p.Dst, Dst: critical})
	}
	for _, part := range [][]timing.Pair{seq[:n-1], seq[n-1:]} {
		sort.SliceStable(part, func(a, b int) bool {
			return m.At(part[a].Src, part[a].Dst) > m.At(part[b].Src, part[b].Dst)
		})
	}
	phase1, err := timing.Replay(m, seq, nil)
	if err != nil {
		return nil, fmt.Errorf("qos: critical resource: %w", err)
	}
	// Each port is next free when its last phase-1 event finishes.
	sendFree := make([]float64, n)
	recvFree := make([]float64, n)
	for _, e := range phase1 {
		sendFree[e.Src] = e.Finish
		recvFree[e.Dst] = e.Finish
	}

	// Phase 2: every pair that does not involve the critical processor,
	// by the open shop heuristic started from the availability phase 1
	// leaves.
	var rest sched.Pattern
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && i != critical && j != critical {
				rest = append(rest, timing.Pair{Src: i, Dst: j})
			}
		}
	}
	r, err := sched.PartialOpenShopFrom(m, rest, sendFree, recvFree)
	if err != nil {
		return nil, fmt.Errorf("qos: critical resource: %w", err)
	}
	out := &timing.Schedule{N: n, Events: append(phase1, r.Schedule.Events...)}
	return &CriticalResult{Schedule: out, CriticalDone: CriticalDone(out, critical)}, nil
}

// CriticalDone returns when processor p finishes its last send or
// receive in the schedule.
func CriticalDone(s *timing.Schedule, p int) float64 {
	done := 0.0
	for _, e := range s.Events {
		if (e.Src == p || e.Dst == p) && e.Finish > done {
			done = e.Finish
		}
	}
	return done
}
