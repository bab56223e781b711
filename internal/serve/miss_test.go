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

// TestMissReusesScratchFaithfully plans miss A, then miss B, then A
// again with the cache dropped, on a one-worker daemon, so every plan
// after the first is made in the scratch the one before it left. Each
// answer must be the plan a fresh communicator makes for the pattern.
func TestMissReusesScratchFaithfully(t *testing.T) {
	d := missDaemon(t)
	perf := unevenTable(50)
	for _, seed := range []int64{1, 2, 1} {
		req := missRequest(seed)
		d.mu.Lock()
		d.cache = newPlanCache(d.cfg.CacheCap)
		d.mu.Unlock()
		resp := d.Plan(context.Background(), req)
		if !resp.OK || resp.Cached {
			t.Fatalf("seed %d: %+v, want a fresh plan", seed, resp)
		}
		pt, err := admitPattern(req, 50)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := comm.New(50, comm.StaticSource(perf), comm.Config{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.AllToAll(pt.build(newPatternScratch(50)))
		if err != nil {
			t.Fatal(err)
		}
		if resp.TMax != want.CompletionTime() || resp.TLB != want.LowerBound || resp.Algorithm != want.Algorithm {
			t.Fatalf("seed %d: served t_max=%v t_lb=%v %s, fresh %v %v %s", seed,
				resp.TMax, resp.TLB, resp.Algorithm, want.CompletionTime(), want.LowerBound, want.Algorithm)
		}
	}
}

// TestMissAllocations pins what a cache miss allocates. The pattern is
// built in the worker's scratch, and the cost matrix and the plan in
// the communicator scratch beside it, so nothing P×P is left. What
// remains is the flight and its channel, the wait timer's three, and
// the cache's boxed response.
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
	const maxAllocs = 6
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
