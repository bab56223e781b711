package main

import (
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// minRoundOps is the fewest operations a round may hold: with 200 the
// nearest-rank p95 has ten samples beyond it.
const minRoundOps = 200

// mark is the process's resource clock at one instant.
type mark struct {
	t       time.Time
	cpu     time.Duration
	alloc   uint64
	mallocs uint64
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func takeMark() mark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return mark{cpu: processCPU(), alloc: ms.TotalAlloc, mallocs: ms.Mallocs, t: time.Now()}
}

// meter accumulates the timed segments of one round. Work between
// segments — directory ticks, fences, the correctness gate — is on
// nobody's clock.
type meter struct {
	lat     [][]time.Duration // per client, reused across rounds
	merged  []time.Duration
	wall    time.Duration
	cpu     time.Duration
	alloc   uint64
	mallocs uint64
	ops     atomic.Int64
	running time.Time // start of the segment in progress; zero between segments
}

func newMeter(clients int) *meter {
	m := &meter{lat: make([][]time.Duration, clients)}
	for c := range m.lat {
		m.lat[c] = make([]time.Duration, 0, 1<<16)
	}
	return m
}

func (m *meter) reset() {
	for c := range m.lat {
		m.lat[c] = m.lat[c][:0]
	}
	m.wall, m.cpu, m.alloc, m.mallocs = 0, 0, 0, 0
	m.ops.Store(0)
}

// segment runs body once per client, concurrently, and charges the
// span from before the first starts to after the last returns.
func (m *meter) segment(body func(client int)) {
	var wg sync.WaitGroup
	from := takeMark()
	m.running = from.t
	for c := range m.lat {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			body(c)
		}(c)
	}
	wg.Wait()
	to := takeMark()
	m.running = time.Time{}
	m.wall += to.t.Sub(from.t)
	m.cpu += to.cpu - from.cpu
	m.alloc += to.alloc - from.alloc
	m.mallocs += to.mallocs - from.mallocs
}

// observe records one client-observed operation latency.
func (m *meter) observe(client int, d time.Duration) {
	m.lat[client] = append(m.lat[client], d)
	m.ops.Add(1)
}

// elapsed is the round's timed wall so far, including the segment in
// progress.
func (m *meter) elapsed() time.Duration {
	if m.running.IsZero() {
		return m.wall
	}
	return m.wall + time.Since(m.running)
}

// timeUp ends a round once its timed wall reaches length and it holds
// minOps operations — a slow host gets a longer round, not a p95 with
// too few samples beyond it; countUp ends it after n operations.
func (m *meter) timeUp(length time.Duration, minOps int) func() bool {
	return func() bool { return m.ops.Load() >= int64(minOps) && m.elapsed() >= length }
}

func (m *meter) countUp(n int) func() bool {
	return func() bool { return m.ops.Load() >= int64(n) }
}

// loop is the closed loop of the open-ended workloads: one segment in
// which each client issues op after op until done. op returns its own
// latency so input generation stays off the latency clock.
func (m *meter) loop(done func() bool, op func(client int) time.Duration) {
	m.segment(func(client int) {
		for !done() {
			m.observe(client, op(client))
		}
	})
}

func (m *meter) stats() roundStats {
	m.merged = m.merged[:0]
	for _, l := range m.lat {
		m.merged = append(m.merged, l...)
	}
	return roundStats{
		ops:        len(m.merged),
		wall:       m.wall,
		cpu:        m.cpu,
		allocBytes: m.alloc,
		mallocs:    m.mallocs,
		p95:        percentile(m.merged, 0.95),
		p50:        percentile(m.merged, 0.50),
	}
}
