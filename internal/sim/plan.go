package sim

import (
	"fmt"
	"sort"

	"hetsched/internal/model"
	"hetsched/internal/timing"
)

// Plan is what a scheduler hands the execution engine: for every
// sender, the order in which it will perform its sends. The engine
// supplies the timing; receive contention is resolved at run time.
type Plan struct {
	N     int
	Order [][]int // Order[i] lists destination processors for sender i, in send order
	Sizes *model.Sizes
}

// Validate checks shape, ranges, and that no sender repeats a
// destination.
func (p *Plan) Validate() error {
	if len(p.Order) != p.N {
		return fmt.Errorf("sim: plan has %d sender lists, want %d", len(p.Order), p.N)
	}
	if p.Sizes == nil || p.Sizes.N() != p.N {
		return fmt.Errorf("sim: plan sizes missing or wrong shape")
	}
	for i, dsts := range p.Order {
		seen := make(map[int]bool, len(dsts))
		for _, j := range dsts {
			if j < 0 || j >= p.N || j == i {
				return fmt.Errorf("sim: sender %d has invalid destination %d", i, j)
			}
			if seen[j] {
				return fmt.Errorf("sim: sender %d lists destination %d twice", i, j)
			}
			seen[j] = true
		}
	}
	return nil
}

// Events returns the total number of sends in the plan.
func (p *Plan) Events() int {
	n := 0
	for _, dsts := range p.Order {
		n += len(dsts)
	}
	return n
}

// Clone deep-copies the plan.
func (p *Plan) Clone() *Plan {
	c := &Plan{N: p.N, Sizes: p.Sizes.Clone(), Order: make([][]int, len(p.Order))}
	for i, dsts := range p.Order {
		c.Order[i] = append([]int(nil), dsts...)
	}
	return c
}

// PlanFromSchedule extracts per-sender send orders from a timed
// schedule: each sender's events sorted by planned start time (ties by
// destination id). The planned times themselves are discarded — the
// engine rediscovers them under its own network and arbitration.
func PlanFromSchedule(s *timing.Schedule, sizes *model.Sizes) (*Plan, error) {
	if sizes.N() != s.N {
		return nil, fmt.Errorf("sim: schedule is for %d processors, sizes for %d", s.N, sizes.N())
	}
	type ev struct {
		dst   int
		start float64
	}
	per := make([][]ev, s.N)
	for _, e := range s.Events {
		if e.Src < 0 || e.Src >= s.N {
			return nil, fmt.Errorf("sim: event sender %d out of range", e.Src)
		}
		per[e.Src] = append(per[e.Src], ev{dst: e.Dst, start: e.Start})
	}
	p := &Plan{N: s.N, Sizes: sizes.Clone(), Order: make([][]int, s.N)}
	for i, evs := range per {
		sort.Slice(evs, func(a, b int) bool {
			if evs[a].start != evs[b].start {
				return evs[a].start < evs[b].start
			}
			return evs[a].dst < evs[b].dst
		})
		for _, e := range evs {
			p.Order[i] = append(p.Order[i], e.dst)
		}
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}
