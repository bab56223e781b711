package serve

import (
	"slices"
	"time"
)

// costEstimator tracks recent planning durations in a fixed ring and
// answers "what does the 95th-percentile plan cost right now?". The
// admission path uses it two ways: CoDel-style expiry (a dequeued
// request whose remaining deadline cannot cover the p95 cost is
// expired immediately rather than planned for nobody) and retry-after
// hints (shed responses quote roughly how long the present backlog
// needs to clear). A ring of recent samples rather than a lifetime
// aggregate keeps the estimate tracking the current matrix sizes and
// rung — degraded-mode caterpillar plans cost far less than fresh
// matching runs, and the estimate should follow the regime the next
// request will actually experience.
//
// The window is kept twice: in arrival order, to know which sample a
// new one evicts, and sorted, so a percentile is an index lookup. Reads
// run under the daemon's lock, which every request takes, so observe
// pays the O(window) upkeep once per plan and a read costs nothing.
type costEstimator struct {
	ring   []time.Duration // last n samples, ring-ordered
	sorted []time.Duration // the same n samples, ascending
	idx    int             // next write position in ring
}

// estimatorWindow is how many recent plan durations inform the p95.
const estimatorWindow = 128

func newCostEstimator() *costEstimator {
	return &costEstimator{
		ring:   make([]time.Duration, estimatorWindow),
		sorted: make([]time.Duration, 0, estimatorWindow),
	}
}

// observe records one planning duration, evicting the oldest once the
// window is full. Callers synchronize.
func (e *costEstimator) observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	if len(e.sorted) == len(e.ring) {
		old, _ := slices.BinarySearch(e.sorted, e.ring[e.idx])
		e.sorted = slices.Delete(e.sorted, old, old+1)
	}
	at, _ := slices.BinarySearch(e.sorted, d)
	e.sorted = slices.Insert(e.sorted, at, d)
	e.ring[e.idx] = d
	e.idx = (e.idx + 1) % len(e.ring)
}

// p95 returns the 95th-percentile recent planning duration, or 0 when
// no samples exist yet (a cold daemon expires nothing on estimates it
// does not have). Callers synchronize.
func (e *costEstimator) p95() time.Duration { return e.quantile(95) }

// p99 returns the 99th-percentile recent planning duration — the tail
// sampler's "slow request" threshold. Callers synchronize.
func (e *costEstimator) p99() time.Duration { return e.quantile(99) }

// quantile returns the q-th percentile (nearest-rank) recent planning
// duration, or 0 when no samples exist yet. Callers synchronize.
func (e *costEstimator) quantile(q int) time.Duration {
	n := len(e.sorted)
	if n == 0 {
		return 0
	}
	k := (q*n + 99) / 100 // ceil(q·n/100), 1-based rank
	if k < 1 {
		k = 1
	}
	return e.sorted[k-1]
}
