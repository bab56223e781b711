package sched

import (
	"fmt"

	"hetsched/internal/assignment"
	"hetsched/internal/model"
	"hetsched/internal/timing"
)

// Partial communication patterns. Besides total exchange, the paper
// names "all-to-some" patterns (Sections 2 and 6) — data staging and
// request/response traffic where only a subset of the P² pairs
// communicate. The framework carries over unchanged: the cost matrix
// supplies event durations, the timing-diagram constraints still
// demand one send and one receive per processor, and the lower bound
// becomes the largest per-processor send or receive load *within the
// pattern*. This file generalizes the open shop, matching and greedy
// schedulers to arbitrary patterns; the fixed caterpillar baseline has
// no partial analogue (it is defined only for the full exchange).

// Pattern is a set of communications to schedule: one event per
// listed (sender, receiver) pair.
type Pattern []timing.Pair

// Validate checks ranges, self messages, and duplicates against a
// system of n processors.
func (p Pattern) Validate(n int) error {
	seen := make(map[timing.Pair]bool, len(p))
	for k, pr := range p {
		if pr.Src < 0 || pr.Src >= n || pr.Dst < 0 || pr.Dst >= n {
			return fmt.Errorf("sched: pattern entry %d (%d→%d) out of range for P=%d", k, pr.Src, pr.Dst, n)
		}
		if pr.Src == pr.Dst {
			return fmt.Errorf("sched: pattern entry %d is a self message", k)
		}
		if seen[pr] {
			return fmt.Errorf("sched: pattern repeats %d→%d", pr.Src, pr.Dst)
		}
		seen[pr] = true
	}
	return nil
}

// TotalExchangePattern returns the full all-to-all pattern for n
// processors.
func TotalExchangePattern(n int) Pattern {
	var p Pattern
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				p = append(p, timing.Pair{Src: i, Dst: j})
			}
		}
	}
	return p
}

// PatternLowerBound is t_lb restricted to the pattern: the largest
// total send or receive time any processor has within it.
func PatternLowerBound(m *model.Matrix, p Pattern) float64 {
	send := make([]float64, m.N())
	recv := make([]float64, m.N())
	for _, pr := range p {
		send[pr.Src] += m.At(pr.Src, pr.Dst)
		recv[pr.Dst] += m.At(pr.Src, pr.Dst)
	}
	lb := 0.0
	for i := 0; i < m.N(); i++ {
		if send[i] > lb {
			lb = send[i]
		}
		if recv[i] > lb {
			lb = recv[i]
		}
	}
	return lb
}

// validatePatternInput is shared by the partial schedulers.
func validatePatternInput(m *model.Matrix, p Pattern) error {
	if err := p.Validate(m.N()); err != nil {
		return err
	}
	return nil
}

// checkPatternSchedule verifies a schedule covers the pattern exactly.
func checkPatternSchedule(s *timing.Schedule, m *model.Matrix, p Pattern) error {
	if err := s.Validate(m); err != nil {
		return err
	}
	if len(s.Events) != len(p) {
		return fmt.Errorf("sched: schedule has %d events for a %d-event pattern", len(s.Events), len(p))
	}
	want := make(map[timing.Pair]bool, len(p))
	for _, pr := range p {
		want[pr] = true
	}
	for _, e := range s.Events {
		if !want[timing.Pair{Src: e.Src, Dst: e.Dst}] {
			return fmt.Errorf("sched: schedule contains %d→%d outside the pattern", e.Src, e.Dst)
		}
	}
	return nil
}

// PartialOpenShop schedules an arbitrary pattern with the open shop
// heuristic: the next-available sender repeatedly picks its
// earliest-available remaining receiver. Theorem 3's argument is
// pattern-agnostic, so completion stays within twice
// PatternLowerBound.
func PartialOpenShop(m *model.Matrix, p Pattern) (*Result, error) {
	if err := validatePatternInput(m, p); err != nil {
		return nil, err
	}
	run := newOpenShopRun(m.N())
	for _, pr := range p {
		run.owe(pr.Src, pr.Dst)
	}
	// Receiver ties are exact here and go to the lowest id.
	events, err := run.schedule(m, 0, TieLowestID)
	if err != nil {
		return nil, err
	}
	out := &timing.Schedule{N: m.N(), Events: events}
	if err := checkPatternSchedule(out, m, p); err != nil {
		return nil, err
	}
	return &Result{Algorithm: "partial-openshop", Schedule: out, LowerBound: PatternLowerBound(m, p)}, nil
}

// PartialMatching schedules an arbitrary pattern by decomposing it
// into contention-free steps with successive extremal matchings (max
// selects maximum-weight first) and evaluating them asynchronously.
// Pairings outside the pattern act as free no-ops carrying no weight;
// pattern edges carry a dominating bonus so every step packs the
// maximum number of pattern events.
func PartialMatching(m *model.Matrix, p Pattern, max bool) (*Result, error) {
	if err := validatePatternInput(m, p); err != nil {
		return nil, err
	}
	n := m.N()
	name := "partial-maxmatch"
	if !max {
		name = "partial-minmatch"
	}
	if len(p) == 0 || n == 0 {
		return &Result{
			Algorithm:  name,
			Steps:      &timing.StepSchedule{N: n},
			Schedule:   &timing.Schedule{N: n},
			LowerBound: 0,
		}, nil
	}
	avail := make(map[timing.Pair]bool, len(p))
	cmax := 0.0
	for _, pr := range p {
		avail[pr] = true
		if c := m.At(pr.Src, pr.Dst); c > cmax {
			cmax = c
		}
	}
	bonus := float64(n)*cmax + 1
	cost := make([][]float64, n)
	for i := range cost {
		cost[i] = make([]float64, n)
	}
	ss := &timing.StepSchedule{N: n}
	for remaining := len(p); remaining > 0; {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if avail[timing.Pair{Src: i, Dst: j}] {
					if max {
						cost[i][j] = bonus + m.At(i, j)
					} else {
						cost[i][j] = bonus + (cmax - m.At(i, j))
					}
				} else {
					cost[i][j] = 0
				}
			}
		}
		perm, _, err := assignment.SolveMax(cost)
		if err != nil {
			return nil, fmt.Errorf("sched: partial matching: %w", err)
		}
		var step timing.Step
		for i, j := range perm {
			pr := timing.Pair{Src: i, Dst: j}
			if avail[pr] {
				step = append(step, pr)
				delete(avail, pr)
				remaining--
			}
		}
		if len(step) == 0 {
			return nil, fmt.Errorf("sched: partial matching stalled with %d events left", remaining)
		}
		ss.Steps = append(ss.Steps, step)
	}
	s, err := ss.Evaluate(m)
	if err != nil {
		return nil, err
	}
	if err := checkPatternSchedule(s, m, p); err != nil {
		return nil, err
	}
	return &Result{Algorithm: name, Steps: ss, Schedule: s, LowerBound: PatternLowerBound(m, p)}, nil
}

// PartialGreedy schedules an arbitrary pattern with the greedy list
// technique: each sender rank-orders its pattern destinations longest
// first and steps are composed with the fairness rotation.
func PartialGreedy(m *model.Matrix, p Pattern) (*Result, error) {
	if err := validatePatternInput(m, p); err != nil {
		return nil, err
	}
	n := m.N()
	lists := make([][]int, n)
	for _, pr := range p {
		lists[pr.Src] = append(lists[pr.Src], pr.Dst)
	}
	for i := range lists {
		src := i
		l := lists[i]
		// Insertion sort by decreasing duration, ties by id, for
		// determinism on the small per-sender lists.
		for a := 1; a < len(l); a++ {
			for b := a; b > 0; b-- {
				da, db := m.At(src, l[b]), m.At(src, l[b-1])
				if da > db || (da == db && l[b] < l[b-1]) {
					l[b], l[b-1] = l[b-1], l[b]
				} else {
					break
				}
			}
		}
	}
	ss := &timing.StepSchedule{N: n}
	remaining := len(p)
	first := 0
	for remaining > 0 {
		recvBusy := make([]bool, n)
		var step timing.Step
		firstIdle := -1
		lastPicker := first
		for k := 0; k < n; k++ {
			i := (first + k) % n
			lastPicker = i
			picked := -1
			for idx, j := range lists[i] {
				if !recvBusy[j] {
					picked = idx
					break
				}
			}
			if picked < 0 {
				if firstIdle < 0 && len(lists[i]) > 0 {
					firstIdle = i
				}
				continue
			}
			j := lists[i][picked]
			lists[i] = append(lists[i][:picked], lists[i][picked+1:]...)
			recvBusy[j] = true
			step = append(step, timing.Pair{Src: i, Dst: j})
			remaining--
		}
		if len(step) > 0 {
			ss.Steps = append(ss.Steps, step)
		}
		if firstIdle >= 0 {
			first = firstIdle
		} else {
			first = lastPicker
		}
	}
	s, err := ss.Evaluate(m)
	if err != nil {
		return nil, err
	}
	if err := checkPatternSchedule(s, m, p); err != nil {
		return nil, err
	}
	return &Result{Algorithm: "partial-greedy", Steps: ss, Schedule: s, LowerBound: PatternLowerBound(m, p)}, nil
}
