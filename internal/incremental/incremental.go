// Package incremental implements the Section 6.2 extension:
// incremental dynamic scheduling. When a sensor-style application runs
// the same total exchange over and over, recomputing the matching
// decomposition from scratch at every invocation costs O(P⁴). If the
// directory reports that only some pairwise bandwidths changed, the
// previous schedule can instead be *repaired*: steps whose events all
// kept (approximately) their old costs are reused verbatim, and only
// the dirty steps — those containing an event whose cost moved by more
// than a threshold — are re-decomposed by fresh extremal matchings
// over their combined edge set. With k dirty steps the repair costs
// O(k·P³) instead of O(P⁴).
package incremental

import (
	"fmt"
	"math"

	"hetsched/internal/assignment"
	"hetsched/internal/model"
	"hetsched/internal/timing"
)

// Options tunes the repair.
type Options struct {
	// Threshold is the relative cost change that marks a step dirty:
	// |new−old| > Threshold·max(old, ε). The paper leaves the policy
	// open; 0.1 (10%) is the default.
	Threshold float64
	// Max selects maximum-weight re-matching of dirty steps (matching
	// the max-matching scheduler); false selects minimum-weight.
	Max bool
}

// DefaultOptions returns a 10% threshold with max-weight re-matching.
func DefaultOptions() Options { return Options{Threshold: 0.1, Max: true} }

// Stats reports what the repair did.
type Stats struct {
	Steps       int // steps in the incoming schedule
	DirtySteps  int // steps re-decomposed
	Matchings   int // assignment problems solved
	EventsMoved int // events whose step changed
}

// Refine repairs a step schedule computed for matrix old so that it
// suits matrix cur. Clean steps are kept as-is; dirty steps are merged
// and re-decomposed with extremal matchings under the new costs. The
// result covers exactly the same events as prev.
func Refine(prev *timing.StepSchedule, old, cur *model.Matrix, opts Options) (*timing.StepSchedule, Stats, error) {
	var st Stats
	if old.N() != prev.N || cur.N() != prev.N {
		return nil, st, fmt.Errorf("incremental: shape mismatch: steps P=%d, old P=%d, new P=%d", prev.N, old.N(), cur.N())
	}
	if err := prev.ValidateSteps(); err != nil {
		return nil, st, err
	}
	// A NaN cost compares false against any threshold, so it would pass
	// as clean: check both matrices before judging any step.
	if err := old.Validate(); err != nil {
		return nil, st, fmt.Errorf("incremental: old matrix: %w", err)
	}
	if err := cur.Validate(); err != nil {
		return nil, st, fmt.Errorf("incremental: new matrix: %w", err)
	}
	if opts.Threshold < 0 {
		return nil, st, fmt.Errorf("incremental: negative threshold %g", opts.Threshold)
	}
	st.Steps = len(prev.Steps)

	const eps = 1e-12
	dirty := func(p timing.Pair) bool {
		o, c := old.At(p.Src, p.Dst), cur.At(p.Src, p.Dst)
		return math.Abs(c-o) > opts.Threshold*math.Max(o, eps)
	}

	out := &timing.StepSchedule{N: prev.N}
	var pool []timing.Pair // events from dirty steps, to re-decompose
	dirtySteps := 0
	for _, step := range prev.Steps {
		isDirty := false
		for _, p := range step {
			if dirty(p) {
				isDirty = true
				break
			}
		}
		if !isDirty {
			out.Steps = append(out.Steps, append(timing.Step(nil), step...))
			continue
		}
		dirtySteps++
		pool = append(pool, step...)
	}
	st.DirtySteps = dirtySteps
	if len(pool) == 0 {
		return out, st, nil
	}

	newSteps, matchings, err := decomposePool(prev.N, pool, cur, opts.Max)
	if err != nil {
		return nil, st, err
	}
	st.Matchings = matchings
	// Count how many pooled events ended up in a different step index
	// than before (a rough churn measure): every pooled event moved
	// conceptually, so report the pool size.
	st.EventsMoved = len(pool)
	out.Steps = append(out.Steps, newSteps...)

	if err := out.ValidateSteps(); err != nil {
		return nil, st, fmt.Errorf("incremental: repaired schedule invalid: %w", err)
	}
	if !samePairs(prev, out) {
		return nil, st, fmt.Errorf("incremental: repair changed the event set")
	}
	return out, st, nil
}

// decomposePool splits an arbitrary set of events into contention-free
// steps by repeated extremal matchings. Pairings outside the pool act
// as free no-ops (weight 0); pool edges carry a bonus large enough
// that the assignment always packs the maximum number of pool events
// into each step, tie-broken toward the extremal (max or min) cost.
func decomposePool(n int, pool []timing.Pair, cur *model.Matrix, max bool) ([]timing.Step, int, error) {
	avail := make(map[timing.Pair]bool, len(pool))
	cmax := 0.0
	for _, p := range pool {
		if avail[p] {
			return nil, 0, fmt.Errorf("incremental: duplicate event %d→%d in dirty steps", p.Src, p.Dst)
		}
		avail[p] = true
		if c := cur.At(p.Src, p.Dst); c > cmax {
			cmax = c
		}
	}
	// With bonus > n·cmax, one extra pool edge always outweighs any
	// cost rearrangement among the others.
	bonus := float64(n)*cmax + 1
	cost := make([][]float64, n)
	for i := range cost {
		cost[i] = make([]float64, n)
	}
	var steps []timing.Step
	matchings := 0
	remaining := len(pool)
	for guard := 0; remaining > 0; guard++ {
		if guard > len(pool) {
			return nil, matchings, fmt.Errorf("incremental: decomposition did not converge")
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if avail[timing.Pair{Src: i, Dst: j}] {
					if max {
						cost[i][j] = bonus + cur.At(i, j)
					} else {
						cost[i][j] = bonus + (cmax - cur.At(i, j))
					}
				} else {
					cost[i][j] = 0 // idle / no-op pairing
				}
			}
		}
		perm, _, err := assignment.SolveMax(cost)
		if err != nil {
			return nil, matchings, fmt.Errorf("incremental: re-matching failed: %w", err)
		}
		matchings++
		var step timing.Step
		for i, j := range perm {
			p := timing.Pair{Src: i, Dst: j}
			if avail[p] {
				step = append(step, p)
				delete(avail, p)
				remaining--
			}
		}
		if len(step) == 0 {
			return nil, matchings, fmt.Errorf("incremental: empty matching with %d events left", remaining)
		}
		steps = append(steps, step)
	}
	return steps, matchings, nil
}

// samePairs reports whether two step schedules cover exactly the same
// event multiset.
func samePairs(a, b *timing.StepSchedule) bool {
	count := map[timing.Pair]int{}
	for _, s := range a.Steps {
		for _, p := range s {
			count[p]++
		}
	}
	for _, s := range b.Steps {
		for _, p := range s {
			count[p]--
			if count[p] < 0 {
				return false
			}
		}
	}
	for _, c := range count {
		if c != 0 {
			return false
		}
	}
	return true
}
