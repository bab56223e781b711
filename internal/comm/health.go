package comm

import (
	"sync"
	"time"

	"hetsched/internal/netmodel"
)

// Health is the communicator's view of its performance source, set by
// the fallback ladder on every exchange:
//
//	ok       — the last exchange was planned from a fresh snapshot
//	stale    — the source failed; the exchange used the cached
//	           last-known-good table, whose age was within
//	           DefaultStaleBound
//	degraded — the source failed and no usable cache existed; the
//	           exchange fell back to the uniform-model caterpillar
//	           baseline, which needs no network knowledge at all
//
// The ladder never strands a state: the next successful snapshot
// returns health to ok.
type Health int

const (
	HealthOK Health = iota
	HealthStale
	HealthDegraded
)

// String renders the state for logs and Algorithm tags.
func (h Health) String() string {
	switch h {
	case HealthOK:
		return "ok"
	case HealthStale:
		return "stale"
	case HealthDegraded:
		return "degraded"
	}
	return "unknown"
}

// DefaultStaleBound is how old a cached snapshot may be and still be
// preferred over the blind baseline. Config.Clock measures the age.
const DefaultStaleBound = time.Minute

// uniformPerf is the homogeneous table behind the degraded-mode
// baseline: with no network knowledge at all, every pair looks the
// same, and the caterpillar schedule — which ignores the matrix
// entirely — is the principled choice (Section 4.2: it is exactly the
// algorithm "widely used in tightly coupled homogeneous systems").
// The absolute values are arbitrary; only the schedule's structure
// matters, so degraded-mode completion-time estimates are meaningless
// and results are tagged "+degraded".
//
// The table is immutable and identical for every caller of the same
// size, so it is built once per size and cached: a degraded interlude
// plans every exchange blind, and rebuilding the P×P table per
// exchange was measurable churn exactly when the system is already
// struggling. Callers must treat the returned table as read-only.
func uniformPerf(n int) *netmodel.Perf {
	if v, ok := uniformTables.Load(n); ok {
		return v.(*netmodel.Perf)
	}
	perf := netmodel.NewPerf(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				perf.Set(i, j, netmodel.PairPerf{Latency: 1e-3, Bandwidth: 1e6})
			}
		}
	}
	cached, _ := uniformTables.LoadOrStore(n, perf)
	return cached.(*netmodel.Perf)
}

// uniformTables caches uniformPerf results by processor count.
var uniformTables sync.Map
