package serve

import (
	"context"
	"testing"

	"hetsched/internal/comm"
	"hetsched/internal/directory"
	"hetsched/internal/leakcheck"
	"hetsched/internal/netmodel"
)

// missDaemon is a P = 50 daemon over a static table that its source
// hands out without copying, so a miss pays for planning and nothing a
// test harness adds.
func missDaemon(tb testing.TB) *Daemon {
	tb.Helper()
	const n = 50
	perf := unevenTable(n)
	c, err := comm.New(n, func() (*netmodel.Perf, error) { return perf, nil }, comm.Config{})
	if err != nil {
		tb.Fatal(err)
	}
	d, err := NewDaemon(c, nil, Config{Workers: 1, CacheCap: 4})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { d.Shutdown() })
	return d
}

// missRequest is a random pattern no earlier seed has asked for.
func missRequest(seed int64) directory.PlanRequest {
	return directory.PlanRequest{P: 50, Kind: directory.PatternRandom, Bytes: 1 << 16, Seed: seed}
}

// TestMissAllocations pins what a cache miss allocates beyond its
// schedule. The pattern is built in the worker's scratch and the cost
// matrix in the communicator's pool, so the only P×P allocation left is
// the plan's event slice. The rest are small: the open shop's result,
// schedule and working slab, the flight and its channel, the wait
// timer's three, and the cache's boxed response.
func TestMissAllocations(t *testing.T) {
	if leakcheck.RaceEnabled {
		t.Skip("the race detector instruments allocations")
	}
	d := missDaemon(t)
	seed := int64(0)
	plan := func() {
		seed++
		if resp := d.Plan(context.Background(), missRequest(seed)); !resp.OK || resp.Cached {
			t.Fatalf("seed %d: %+v, want a fresh plan", seed, resp)
		}
	}
	for i := 0; i < 8; i++ {
		plan() // warm the pool and the cache's map
	}
	const maxAllocs = 10
	if got := testing.AllocsPerRun(100, plan); got > maxAllocs {
		t.Errorf("a P=50 miss makes %v allocations, want at most %d", got, maxAllocs)
	}
}

// BenchmarkDaemonMiss is one never-repeated P = 50 random spec through
// Daemon.Plan: admission, one worker's pattern build, the model build
// and the open shop, without the wire.
func BenchmarkDaemonMiss(b *testing.B) {
	d := missDaemon(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if resp := d.Plan(context.Background(), missRequest(int64(i))); !resp.OK {
			b.Fatalf("seed %d: %+v", i, resp)
		}
	}
}
