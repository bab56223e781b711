// Package timing implements the paper's timing-diagram formalism
// (Section 3.3). A schedule is a set of communication events, each a
// rectangle in a per-sender column whose height is the event's modelled
// duration. A valid schedule never overlaps two events in the same
// sender column, and never overlaps two events with the same receiver
// (Section 3.4). The package provides the event and schedule types,
// validity checking, completion time and idle-time accounting, Replay,
// the one loop that times a pair sequence (and through it the
// asynchronous evaluation of step-structured schedules, the
// dependence-graph semantics of Theorem 2), sender columns in sequence
// order, ASCII rendering of timing diagrams, and CSV/JSON export.
package timing

import (
	"fmt"
	"math"
	"sort"

	"hetsched/internal/model"
)

// timeEps is the tolerance used when comparing event times; schedule
// construction chains many float additions.
const timeEps = 1e-9

// Event is one communication: the message from Src to Dst occupying
// the interval [Start, Finish).
type Event struct {
	Src    int
	Dst    int
	Start  float64
	Finish float64
}

// Duration returns the height of the event's rectangle.
func (e Event) Duration() float64 { return e.Finish - e.Start }

// overlaps reports whether two half-open intervals intersect.
func overlaps(aStart, aFinish, bStart, bFinish float64) bool {
	return aStart < bFinish-timeEps && bStart < aFinish-timeEps
}

// Schedule is a timed communication schedule for an N-processor system.
type Schedule struct {
	N      int
	Events []Event
}

// Clone returns a deep copy of the schedule.
func (s *Schedule) Clone() *Schedule {
	return &Schedule{N: s.N, Events: append([]Event(nil), s.Events...)}
}

// CompletionTime returns t_max, the time the last event finishes.
func (s *Schedule) CompletionTime() float64 {
	t := 0.0
	for _, e := range s.Events {
		if e.Finish > t {
			t = e.Finish
		}
	}
	return t
}

// Validate checks the schedule against the validity conditions of
// Section 3.4 and, when m is non-nil, that every event's duration
// equals the modelled time m.At(Src, Dst):
//
//   - indices in range, Start ≥ 0, Finish ≥ Start;
//   - no two events of the same sender overlap in time;
//   - no two events with the same receiver overlap in time.
//
// It does not require the schedule to be a total exchange; use
// ValidateTotalExchange for that.
func (s *Schedule) Validate(m *model.Matrix) error {
	if m != nil && m.N() != s.N {
		return fmt.Errorf("timing: schedule is for %d processors but matrix for %d", s.N, m.N())
	}
	bySender := make([][]Event, s.N)
	byReceiver := make([][]Event, s.N)
	for k, e := range s.Events {
		if e.Src < 0 || e.Src >= s.N || e.Dst < 0 || e.Dst >= s.N {
			return fmt.Errorf("timing: event %d (%d→%d) out of range for N=%d", k, e.Src, e.Dst, s.N)
		}
		if e.Src == e.Dst {
			return fmt.Errorf("timing: event %d is a self message (%d→%d)", k, e.Src, e.Dst)
		}
		if e.Start < -timeEps || e.Finish < e.Start-timeEps ||
			math.IsNaN(e.Start) || math.IsNaN(e.Finish) || math.IsInf(e.Finish, 0) {
			return fmt.Errorf("timing: event %d has invalid interval [%g, %g)", k, e.Start, e.Finish)
		}
		if m != nil {
			want := m.At(e.Src, e.Dst)
			if math.Abs(e.Duration()-want) > timeEps*(1+want) {
				return fmt.Errorf("timing: event %d (%d→%d) has duration %g, model says %g",
					k, e.Src, e.Dst, e.Duration(), want)
			}
		}
		bySender[e.Src] = append(bySender[e.Src], e)
		byReceiver[e.Dst] = append(byReceiver[e.Dst], e)
	}
	check := func(kind string, groups [][]Event) error {
		for p, evs := range groups {
			sort.Slice(evs, func(i, j int) bool { return evs[i].Start < evs[j].Start })
			for i := 1; i < len(evs); i++ {
				a, b := evs[i-1], evs[i]
				if overlaps(a.Start, a.Finish, b.Start, b.Finish) {
					return fmt.Errorf("timing: %s %d has overlapping events %d→%d [%g,%g) and %d→%d [%g,%g)",
						kind, p, a.Src, a.Dst, a.Start, a.Finish, b.Src, b.Dst, b.Start, b.Finish)
				}
			}
		}
		return nil
	}
	if err := check("sender", bySender); err != nil {
		return err
	}
	return check("receiver", byReceiver)
}

// ValidateTotalExchange checks Validate's conditions and additionally
// that the schedule contains exactly one event for every ordered
// processor pair (i, j), i ≠ j — the all-to-all personalized
// communication pattern.
func (s *Schedule) ValidateTotalExchange(m *model.Matrix) error {
	if err := s.Validate(m); err != nil {
		return err
	}
	if want := s.N * (s.N - 1); len(s.Events) != want {
		return fmt.Errorf("timing: total exchange needs %d events, schedule has %d", want, len(s.Events))
	}
	seen := make(map[[2]int]bool, len(s.Events))
	for _, e := range s.Events {
		key := [2]int{e.Src, e.Dst}
		if seen[key] {
			return fmt.Errorf("timing: duplicate event %d→%d", e.Src, e.Dst)
		}
		seen[key] = true
	}
	return nil
}

// ByStart returns the events sorted by start time (ties by sender,
// then receiver), without modifying the schedule.
func (s *Schedule) ByStart() []Event {
	evs := append([]Event(nil), s.Events...)
	sort.Slice(evs, func(i, j int) bool {
		a, b := evs[i], evs[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		return a.Dst < b.Dst
	})
	return evs
}

// Pair is an unscheduled communication: a sender/receiver pair.
type Pair struct {
	Src, Dst int
}

// Replay times a pair sequence by the paper's rule (Sections 3.3–3.4,
// Theorem 2's dependence graph): every port starts free at 0, and each
// pair starts at max(sender ready, receiver ready) and lasts
// m.At(Src, Dst). Outside the open shop kernel, which needs its times
// to pick, it is the only loop applying this rule to matrix costs. The
// events overwrite dst, grown only if too short, in sequence order. A
// pair out of range, a self message, or a cost that is NaN, infinite or
// negative is an error naming the pair.
func Replay(m *model.Matrix, seq []Pair, dst []Event) ([]Event, error) {
	n := m.N()
	var buf [128]float64 // port times on the stack up to P = 64
	var ready []float64
	if 2*n <= len(buf) {
		ready = buf[:2*n]
	} else {
		ready = make([]float64, 2*n)
	}
	sendReady, recvReady := ready[:n], ready[n:]
	if cap(dst) < len(seq) {
		dst = make([]Event, len(seq))
	}
	dst = dst[:len(seq)]
	for k, p := range seq {
		if uint(p.Src) >= uint(n) || uint(p.Dst) >= uint(n) {
			return nil, fmt.Errorf("timing: pair %d (%d→%d) out of range for N=%d", k, p.Src, p.Dst, n)
		}
		if p.Src == p.Dst {
			return nil, fmt.Errorf("timing: pair %d is a self message (%d→%d)", k, p.Src, p.Dst)
		}
		c := m.At(p.Src, p.Dst)
		if !validCost(c) {
			return nil, costError(k, p, c)
		}
		start := sendReady[p.Src]
		if r := recvReady[p.Dst]; r > start {
			start = r
		}
		finish := start + c
		dst[k] = Event{Src: p.Src, Dst: p.Dst, Start: start, Finish: finish}
		sendReady[p.Src] = finish
		recvReady[p.Dst] = finish
	}
	return dst, nil
}

// validCost reports whether c is a finite non-negative time; NaN fails
// both comparisons.
func validCost(c float64) bool { return c >= 0 && c <= math.MaxFloat64 }

func costError(k int, p Pair, c float64) error {
	return fmt.Errorf("timing: pair %d (%d→%d) costs %v, not a valid time", k, p.Src, p.Dst, c)
}

// Columns cuts the schedule into sender columns, the send orders sim
// and exec walk: column i is sender i's events in sequence order, one
// exact-size window of a slab each. A replayable sequence is already in
// time order per sender, so a sender whose starts go backwards is an
// error, as is an event out of range or a self message.
func (s *Schedule) Columns() ([][]Event, error) {
	counts := make([]int, s.N)
	for k, e := range s.Events {
		if uint(e.Src) >= uint(s.N) || uint(e.Dst) >= uint(s.N) || e.Src == e.Dst {
			return nil, fmt.Errorf("timing: event %d (%d→%d) is not a message between two of N=%d processors", k, e.Src, e.Dst, s.N)
		}
		counts[e.Src]++
	}
	slab := make([]Event, len(s.Events))
	cols := make([][]Event, s.N)
	for src, off := 0, 0; src < s.N; src++ {
		cols[src] = slab[off : off : off+counts[src]]
		off += counts[src]
	}
	for k, e := range s.Events {
		col := cols[e.Src]
		if last := len(col) - 1; last >= 0 && e.Start < col[last].Start {
			return nil, fmt.Errorf("timing: event %d (%d→%d) starts at %g, before sender %d's previous event at %g",
				k, e.Src, e.Dst, e.Start, e.Src, col[last].Start)
		}
		cols[e.Src] = append(col, e)
	}
	return cols, nil
}

// Step is one round of a step-structured schedule: a set of pairs that
// nominally proceed together. A valid step uses each sender at most
// once and each receiver at most once (it is a partial permutation).
type Step []Pair

// StepSchedule is a schedule expressed as ordered steps, the shape the
// baseline, matching and greedy algorithms produce. The communication
// phase "does not impose a synchronization among the processors after
// each step" (Section 4.3): an event begins whenever its sender has
// finished the previous step's send and its receiver the previous
// step's receive. Evaluate implements exactly those dependence-graph
// semantics; EvaluateBarrier provides the synchronized alternative for
// ablation.
type StepSchedule struct {
	N     int
	Steps []Step
}

// ValidateSteps checks step structure: pair indices in range, no self
// messages, and within each step no repeated sender or receiver.
func (ss *StepSchedule) ValidateSteps() error {
	used := make([]bool, 2*ss.N) // the step's senders, then its receivers
	for si, step := range ss.Steps {
		clear(used)
		for _, p := range step {
			if p.Src < 0 || p.Src >= ss.N || p.Dst < 0 || p.Dst >= ss.N {
				return fmt.Errorf("timing: step %d pair %d→%d out of range", si, p.Src, p.Dst)
			}
			if p.Src == p.Dst {
				return fmt.Errorf("timing: step %d contains self message %d→%d", si, p.Src, p.Dst)
			}
			if used[p.Src] {
				return fmt.Errorf("timing: step %d uses sender %d twice", si, p.Src)
			}
			if used[ss.N+p.Dst] {
				return fmt.Errorf("timing: step %d uses receiver %d twice", si, p.Dst)
			}
			used[p.Src], used[ss.N+p.Dst] = true, true
		}
	}
	return nil
}

// check fails unless the steps are valid and m is their size.
func (ss *StepSchedule) check(m *model.Matrix) error {
	if m.N() != ss.N {
		return fmt.Errorf("timing: step schedule is for %d processors but matrix for %d", ss.N, m.N())
	}
	return ss.ValidateSteps()
}

// Evaluate lowers the step schedule to a timed schedule under the
// asynchronous semantics: it replays the steps' pairs in order, so each
// event starts at max(sender ready, receiver ready). Because each step
// uses every sender and receiver at most once, this single pass
// computes the longest-path times of the dependence graph.
func (ss *StepSchedule) Evaluate(m *model.Matrix) (*Schedule, error) {
	if err := ss.check(m); err != nil {
		return nil, err
	}
	events, err := Replay(m, ss.Pairs(), nil)
	if err != nil {
		return nil, err
	}
	return &Schedule{N: ss.N, Events: events}, nil
}

// EvaluateBarrier lowers the step schedule with a full synchronization
// after every step: no event of step k starts before every event of
// step k−1 has finished. The paper's algorithms do not use barriers;
// this exists to measure what the asynchrony is worth (see DESIGN.md
// ablations). A cost that is NaN, infinite or negative is an error.
func (ss *StepSchedule) EvaluateBarrier(m *model.Matrix) (*Schedule, error) {
	if err := ss.check(m); err != nil {
		return nil, err
	}
	out := &Schedule{N: ss.N}
	barrier := 0.0
	for _, step := range ss.Steps {
		next := barrier
		for _, p := range step {
			c := m.At(p.Src, p.Dst)
			if !validCost(c) {
				return nil, costError(len(out.Events), p, c)
			}
			finish := barrier + c
			out.Events = append(out.Events, Event{Src: p.Src, Dst: p.Dst, Start: barrier, Finish: finish})
			if finish > next {
				next = finish
			}
		}
		barrier = next
	}
	return out, nil
}

// Pairs returns every pair in step order, flattened.
func (ss *StepSchedule) Pairs() []Pair {
	var out []Pair
	for _, step := range ss.Steps {
		out = append(out, step...)
	}
	return out
}

// CoversTotalExchange reports whether the steps contain exactly one
// pair for every ordered (i, j), i ≠ j, of the N processors.
func (ss *StepSchedule) CoversTotalExchange() bool {
	want := ss.N * (ss.N - 1)
	seen := make(map[Pair]bool, want)
	count := 0
	for _, step := range ss.Steps {
		for _, p := range step {
			if p.Src < 0 || p.Src >= ss.N || p.Dst < 0 || p.Dst >= ss.N || p.Src == p.Dst || seen[p] {
				return false
			}
			seen[p] = true
			count++
		}
	}
	return count == want
}
