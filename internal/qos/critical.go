package qos

import (
	"fmt"
	"math"

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
	// Phase 2 checks its own times; phase 1's are checked here.
	for k := 0; k < n; k++ {
		for _, c := range [2]float64{m.At(critical, k), m.At(k, critical)} {
			if k != critical && (math.IsNaN(c) || math.IsInf(c, 0) || c < 0) {
				return nil, fmt.Errorf("qos: critical processor %d's time with %d = %v is not a valid time", critical, k, c)
			}
		}
	}
	sendFree := make([]float64, n)
	recvFree := make([]float64, n)
	out := &timing.Schedule{N: n}
	place := func(i, j int) timing.Event {
		start := math.Max(sendFree[i], recvFree[j])
		e := timing.Event{Src: i, Dst: j, Start: start, Finish: start + m.At(i, j)}
		sendFree[i] = e.Finish
		recvFree[j] = e.Finish
		out.Events = append(out.Events, e)
		return e
	}

	// Phase 1: the critical processor's own events. Its sends and
	// receives interleave freely (they use different ports), so pack
	// each list longest first to minimize its completion: the critical
	// column is then fully dense — its completion equals its own work,
	// the best possible.
	sends := otherProcs(n, critical)
	sortByDesc(sends, func(j int) float64 { return m.At(critical, j) })
	recvs := otherProcs(n, critical)
	sortByDesc(recvs, func(i int) float64 { return m.At(i, critical) })
	done := 0.0
	for _, j := range sends {
		e := place(critical, j)
		if e.Finish > done {
			done = e.Finish
		}
	}
	for _, i := range recvs {
		e := place(i, critical)
		if e.Finish > done {
			done = e.Finish
		}
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
	out.Events = append(out.Events, r.Schedule.Events...)
	return &CriticalResult{Schedule: out, CriticalDone: done}, nil
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

func otherProcs(n, skip int) []int {
	out := make([]int, 0, n-1)
	for i := 0; i < n; i++ {
		if i != skip {
			out = append(out, i)
		}
	}
	return out
}

func sortByDesc(xs []int, key func(int) float64) {
	for i := 1; i < len(xs); i++ {
		for k := i; k > 0 && key(xs[k]) > key(xs[k-1]); k-- {
			xs[k], xs[k-1] = xs[k-1], xs[k]
		}
	}
}
