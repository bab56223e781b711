package serve

import (
	"context"
	"crypto/sha256"
	"sync"
	"time"

	"hetsched/internal/directory"
)

// flightKey identifies a unit of coalescable work: the same pattern
// key under the same directory generation describes the same matrix
// planned against the same network snapshot, so one planning pass can
// answer every request that shares the key.
type flightKey struct {
	hash [sha256.Size]byte // pattern.key
	gen  uint64            // directory generation at admission
}

// flight is one in-flight planning pass and the rendezvous for every
// request coalesced onto it. The leader's request occupies a queue
// slot; followers attach for free and wait on done. It carries the
// leader's pattern, not a matrix: only the worker that plans it builds
// one, so a flight that is expired, drained or shed never does. complete is
// idempotent — workers, the CoDel expiry path, and forced drains can
// all race to resolve a flight, and the first result wins.
type flight struct {
	key      flightKey
	ctx      context.Context // leader's context; carries the trace the worker records into
	pat      pattern
	enqueued time.Time // admission time; queue wait is measured from it
	deadline time.Time // leader's absolute deadline; CoDel checks it at dequeue
	done     chan struct{}
	once     sync.Once
	resp     directory.PlanResponse // template; readable after done closes
}

func newFlight(ctx context.Context, key flightKey, pat pattern, enqueued, deadline time.Time) *flight {
	return &flight{key: key, ctx: ctx, pat: pat, enqueued: enqueued, deadline: deadline,
		done: make(chan struct{})}
}

// complete resolves the flight for every waiter. First caller wins.
func (fl *flight) complete(resp directory.PlanResponse) {
	fl.once.Do(func() {
		fl.resp = resp
		close(fl.done)
	})
}

// planCache is the versioned plan cache: responses keyed on
// (pattern hash, directory generation). Keying on the generation IS
// the invalidation — when the directory snapshot changes, the daemon's
// generation probe moves curGen forward and every entry under the old
// generation becomes unreachable; the FIFO ring then reclaims dead
// slots as new plans are installed. Only HealthOK plans are cached: a
// stale or degraded plan cached under an unchanged generation would
// keep shadowing fresh plans after the directory recovers.
//
// Callers synchronize (the daemon's admission mutex).
type planCache struct {
	limit   int
	entries map[flightKey]directory.PlanResponse
	ring    []flightKey // insertion order; next points at the eviction victim
	next    int
}

func newPlanCache(limit int) *planCache {
	return &planCache{
		limit:   limit,
		entries: make(map[flightKey]directory.PlanResponse, limit),
		ring:    make([]flightKey, limit),
	}
}

func (pc *planCache) get(key flightKey) (directory.PlanResponse, bool) {
	resp, ok := pc.entries[key]
	return resp, ok
}

func (pc *planCache) put(key flightKey, resp directory.PlanResponse) {
	if _, ok := pc.entries[key]; ok {
		pc.entries[key] = resp
		return
	}
	if len(pc.entries) >= pc.limit {
		delete(pc.entries, pc.ring[pc.next])
	}
	pc.ring[pc.next] = key
	pc.next = (pc.next + 1) % pc.limit
	pc.entries[key] = resp
}
