package sched

import (
	"fmt"

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
// pattern*. This file generalizes the open shop scheduler to arbitrary
// patterns.

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
	return PartialOpenShopFrom(m, p, nil, nil)
}

// PartialOpenShopFrom is PartialOpenShop started from the port
// availability earlier phases left behind: sender i is first free at
// sendFree[i] and receiver j at recvFree[j]. A nil slice starts every
// port at 0; a start that is not one finite non-negative time per
// processor is an error. The lower bound ignores the start. The §6.3
// checkpoint replanner and the §6.4 critical-resource fill run it.
func PartialOpenShopFrom(m *model.Matrix, p Pattern, sendFree, recvFree []float64) (*Result, error) {
	if err := p.Validate(m.N()); err != nil {
		return nil, err
	}
	run := newOpenShopRun(m.N(), nil)
	for _, pr := range p {
		run.owe(pr.Src, pr.Dst)
	}
	// Receiver ties are exact here and go to the lowest id.
	events, err := run.schedule(m, 0, TieLowestID, sendFree, recvFree, nil)
	if err != nil {
		return nil, err
	}
	out := &timing.Schedule{N: m.N(), Events: events}
	if err := checkPatternSchedule(out, m, p); err != nil {
		return nil, err
	}
	return &Result{Algorithm: "partial-openshop", Schedule: out, LowerBound: PatternLowerBound(m, p)}, nil
}
