package serve

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hetsched/internal/comm"
	"hetsched/internal/directory"
	"hetsched/internal/netmodel"
)

// perfTable builds a healthy n-processor performance table.
func perfTable(n int) *netmodel.Perf {
	perf := netmodel.NewPerf(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				perf.Set(i, j, netmodel.PairPerf{Latency: 1e-3, Bandwidth: 1e6})
			}
		}
	}
	return perf
}

// okSource always serves a fresh table.
func okSource(n int) comm.Source {
	perf := perfTable(n)
	return func() (*netmodel.Perf, error) { return perf.Clone(), nil }
}

func newTestDaemon(t testing.TB, n int, source comm.Source, gen GenFunc, cfg Config) *Daemon {
	t.Helper()
	c, err := comm.New(n, source, comm.Config{})
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDaemon(c, gen, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Shutdown() })
	return d
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestDaemonServesPlan(t *testing.T) {
	d := newTestDaemon(t, 4, okSource(4), func() (uint64, error) { return 3, nil }, Config{})
	resp := d.Plan(context.Background(), directory.PlanRequest{ID: 7, P: 4, Kind: directory.PatternUniform, Bytes: 1024})
	if !resp.OK || resp.Status != directory.PlanServed {
		t.Fatalf("plan not served: %+v", resp)
	}
	if resp.ID != 7 {
		t.Fatalf("response ID %d, want 7", resp.ID)
	}
	if resp.Health != "ok" {
		t.Fatalf("healthy daemon served with health %q", resp.Health)
	}
	if resp.Generation != 3 {
		t.Fatalf("generation %d, want 3", resp.Generation)
	}
	if resp.Algorithm == "" || resp.TMax <= 0 || resp.TLB <= 0 {
		t.Fatalf("served plan is missing its payload: %+v", resp)
	}
	st := d.Snapshot()
	if st.Admitted != 1 || st.Served != 1 || st.ServedFresh != 1 || st.Plans != 1 {
		t.Fatalf("unexpected stats: %+v", st)
	}
}

func TestDaemonCacheAndGenerationInvalidation(t *testing.T) {
	var gen atomic.Uint64
	gen.Store(1)
	d := newTestDaemon(t, 4, okSource(4), func() (uint64, error) { return gen.Load(), nil },
		Config{GenInterval: time.Nanosecond}) // probe on every request
	req := directory.PlanRequest{P: 4, Kind: directory.PatternRandom, Bytes: 2048, Seed: 5}

	first := d.Plan(context.Background(), req)
	if !first.OK || first.Cached {
		t.Fatalf("first plan should be computed fresh: %+v", first)
	}
	second := d.Plan(context.Background(), req)
	if !second.OK || !second.Cached {
		t.Fatalf("identical request under the same generation should hit the cache: %+v", second)
	}
	if second.Generation != 1 || second.Algorithm != first.Algorithm {
		t.Fatalf("cached response differs from the original: %+v vs %+v", second, first)
	}

	gen.Store(2) // directory snapshot changed
	third := d.Plan(context.Background(), req)
	if !third.OK || third.Cached {
		t.Fatalf("generation change must invalidate the cache: %+v", third)
	}
	if third.Generation != 2 {
		t.Fatalf("replanned response carries generation %d, want 2", third.Generation)
	}
	st := d.Snapshot()
	if st.CacheHits != 1 || st.Plans != 2 {
		t.Fatalf("unexpected stats: %+v", st)
	}
}

// TestDaemonCacheSurvivesGenerationRegression scripts a directory
// restart: the generation reads 5, then 2 (a new incarnation counting
// from zero over a different table), then climbs back to 5. No plan
// computed against the first incarnation's table may be served once the
// counter has gone backwards, although its cache key comes round again.
func TestDaemonCacheSurvivesGenerationRegression(t *testing.T) {
	slow := perfTable(4)
	fast := slow.Scale(4)
	var gen atomic.Uint64
	var table atomic.Pointer[netmodel.Perf]
	gen.Store(5)
	table.Store(slow)
	source := func() (*netmodel.Perf, error) { return table.Load(), nil }
	d := newTestDaemon(t, 4, source, func() (uint64, error) { return gen.Load(), nil },
		Config{GenInterval: time.Nanosecond}) // probe on every request
	req := directory.PlanRequest{P: 4, Kind: directory.PatternRandom, Bytes: 1 << 20, Seed: 5}

	before := d.Plan(context.Background(), req)
	if !before.OK || before.Cached || before.Generation != 5 {
		t.Fatalf("first plan should be computed at generation 5: %+v", before)
	}
	if again := d.Plan(context.Background(), req); !again.Cached {
		t.Fatalf("generation 5 plan was not cached, the test proves nothing: %+v", again)
	}

	table.Store(fast)
	for _, g := range []uint64{2, 5} {
		gen.Store(g)
		resp := d.Plan(context.Background(), req)
		if !resp.OK || resp.Generation != g {
			t.Fatalf("generation %d: not served there: %+v", g, resp)
		}
		if resp.Cached {
			t.Fatalf("generation %d: served from a cache that predates the restart: %+v", g, resp)
		}
		if resp.TMax >= before.TMax {
			t.Fatalf("generation %d: plan takes %g s, the old table's plan took %g s: planned against the old table",
				g, resp.TMax, before.TMax)
		}
	}
	if hit := d.Plan(context.Background(), req); !hit.Cached || hit.TMax >= before.TMax {
		t.Fatalf("the new incarnation's generation 5 plan should now be the cached one: %+v", hit)
	}
}

// TestDaemonCoalescesDuplicates is the acceptance check for request
// coalescing: of K concurrent identical requests, at least 90% share
// one planning pass.
func TestDaemonCoalescesDuplicates(t *testing.T) {
	const K = 20
	gate := make(chan struct{})
	perf := perfTable(4)
	var calls atomic.Int64
	source := func() (*netmodel.Perf, error) {
		if calls.Add(1) == 1 {
			<-gate // hold the first plan open so duplicates can pile on
		}
		return perf.Clone(), nil
	}
	d := newTestDaemon(t, 4, source, nil, Config{Workers: 2, Queue: K})
	req := directory.PlanRequest{P: 4, Kind: directory.PatternUniform, Bytes: 512,
		DeadlineMS: 5000}

	var wg sync.WaitGroup
	resps := make([]directory.PlanResponse, K)
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resps[i] = d.Plan(context.Background(), req)
		}(i)
	}
	// Release the gated plan only once every duplicate has attached.
	waitFor(t, "duplicates to coalesce", func() bool {
		return d.Snapshot().Coalesced >= K-1
	})
	close(gate)
	wg.Wait()

	served, coalesced := 0, 0
	for i, resp := range resps {
		if !resp.OK || resp.Status != directory.PlanServed {
			t.Fatalf("request %d not served: %+v", i, resp)
		}
		served++
		if resp.Coalesced {
			coalesced++
		}
	}
	if served != K {
		t.Fatalf("served %d of %d", served, K)
	}
	if coalesced < (K*9)/10 {
		t.Fatalf("only %d of %d duplicates coalesced, need >= 90%%", coalesced, K)
	}
	st := d.Snapshot()
	if st.Plans != 1 {
		t.Fatalf("%d planning passes for %d identical requests, want 1", st.Plans, K)
	}
}

// TestDaemonShedsWhenQueueFull: with the worker pinned and the queue
// full, a further distinct request is shed immediately with an
// explicit retry-after — never queued silently, never blocked.
func TestDaemonShedsWhenQueueFull(t *testing.T) {
	gate := make(chan struct{})
	perf := perfTable(4)
	source := func() (*netmodel.Perf, error) {
		<-gate
		return perf.Clone(), nil
	}
	d := newTestDaemon(t, 4, source, nil, Config{Workers: 1, Queue: 1})
	mkReq := func(seed int64) directory.PlanRequest {
		return directory.PlanRequest{P: 4, Kind: directory.PatternRandom, Bytes: 256,
			Seed: seed, DeadlineMS: 5000}
	}

	var wg sync.WaitGroup
	var leaderResp, queuedResp directory.PlanResponse
	wg.Add(1)
	go func() { defer wg.Done(); leaderResp = d.Plan(context.Background(), mkReq(1)) }()
	waitFor(t, "leader to occupy the worker", func() bool { return d.Snapshot().InFlight == 1 })
	wg.Add(1)
	go func() { defer wg.Done(); queuedResp = d.Plan(context.Background(), mkReq(2)) }()
	waitFor(t, "second request to fill the queue", func() bool { return d.Snapshot().QueueDepth == 1 })

	shed := d.Plan(context.Background(), mkReq(3))
	if shed.OK || shed.Status != directory.PlanShed {
		t.Fatalf("expected shed, got %+v", shed)
	}
	if shed.RetryAfterMS <= 0 {
		t.Fatalf("shed response carries no retry-after: %+v", shed)
	}

	close(gate)
	wg.Wait()
	if !leaderResp.OK || !queuedResp.OK {
		t.Fatalf("admitted requests must complete: leader %+v queued %+v", leaderResp, queuedResp)
	}
	st := d.Snapshot()
	if st.Shed != 1 || st.Served != 2 {
		t.Fatalf("unexpected stats: %+v", st)
	}
}

// TestDaemonExpiresPastDeadline: a queued request whose deadline lapses
// before a worker frees up resolves as expired (CoDel-style), with a
// retry-after, instead of being planned for nobody or hanging.
func TestDaemonExpiresPastDeadline(t *testing.T) {
	gate := make(chan struct{})
	perf := perfTable(4)
	source := func() (*netmodel.Perf, error) {
		<-gate
		return perf.Clone(), nil
	}
	d := newTestDaemon(t, 4, source, nil, Config{Workers: 1, Queue: 4})

	var wg sync.WaitGroup
	var leaderResp directory.PlanResponse
	wg.Add(1)
	go func() {
		defer wg.Done()
		leaderResp = d.Plan(context.Background(), directory.PlanRequest{P: 4, Kind: directory.PatternRandom,
			Seed: 1, DeadlineMS: 5000})
	}()
	waitFor(t, "leader to occupy the worker", func() bool { return d.Snapshot().InFlight == 1 })

	// 1ms of budget cannot survive a pinned worker.
	doomed := d.Plan(context.Background(), directory.PlanRequest{P: 4, Kind: directory.PatternRandom,
		Seed: 2, DeadlineMS: 1})
	if doomed.OK || doomed.Status != directory.PlanExpired {
		t.Fatalf("expected expired, got %+v", doomed)
	}
	if doomed.RetryAfterMS <= 0 {
		t.Fatalf("expired response carries no retry-after: %+v", doomed)
	}
	close(gate)
	wg.Wait()
	if !leaderResp.OK {
		t.Fatalf("leader should still be served: %+v", leaderResp)
	}
	waitFor(t, "expired counter", func() bool { return d.Snapshot().Expired >= 1 })
}

// TestDaemonDrainAnswersEverything: Shutdown force-answers whatever
// the drain timeout strands in the queue — zero silent drops — and
// requests arriving after the drain get explicit draining responses.
func TestDaemonDrainAnswersEverything(t *testing.T) {
	gate := make(chan struct{})
	perf := perfTable(4)
	source := func() (*netmodel.Perf, error) {
		<-gate
		return perf.Clone(), nil
	}
	d := newTestDaemon(t, 4, source, nil,
		Config{Workers: 1, Queue: 8, DrainTimeout: 50 * time.Millisecond})

	const queued = 4
	var wg sync.WaitGroup
	resps := make([]directory.PlanResponse, queued+1)
	for i := 0; i <= queued; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resps[i] = d.Plan(context.Background(), directory.PlanRequest{P: 4, Kind: directory.PatternRandom,
				Seed: int64(i), DeadlineMS: 30000})
		}(i)
	}
	waitFor(t, "queue to fill behind the pinned worker", func() bool {
		st := d.Snapshot()
		return st.InFlight == 1 && st.QueueDepth == queued
	})

	done := make(chan int)
	go func() { done <- d.Shutdown() }()
	// The drain timeout passes with the worker still pinned; everything
	// queued must be force-answered. Then release the worker so its
	// in-flight plan finishes and Shutdown returns.
	waitFor(t, "queued requests to be force-drained", func() bool {
		return d.Snapshot().Drained >= queued
	})
	close(gate)
	forced := <-done
	wg.Wait()

	if forced != queued {
		t.Fatalf("force-drained %d, want %d", forced, queued)
	}
	servedCnt, drainedCnt := 0, 0
	for i, resp := range resps {
		switch resp.Status {
		case directory.PlanServed:
			servedCnt++
		case directory.PlanDraining:
			drainedCnt++
			if resp.RetryAfterMS <= 0 {
				t.Fatalf("draining response %d has no retry-after: %+v", i, resp)
			}
		default:
			t.Fatalf("request %d resolved as %q: %+v", i, resp.Status, resp)
		}
	}
	if servedCnt != 1 || drainedCnt != queued {
		t.Fatalf("served %d drained %d, want 1 and %d", servedCnt, drainedCnt, queued)
	}

	after := d.Plan(context.Background(), directory.PlanRequest{P: 4, Kind: directory.PatternUniform})
	if after.Status != directory.PlanDraining {
		t.Fatalf("post-drain request got %+v", after)
	}
	if d.Shutdown() != 0 {
		t.Fatal("second Shutdown found work to force-drain")
	}
}

// TestNilDaemonFailsClosed: every method on a nil daemon refuses
// rather than panicking — the overload-safe story extends to the
// not-even-constructed case.
func TestNilDaemonFailsClosed(t *testing.T) {
	var d *Daemon
	resp := d.Plan(context.Background(), directory.PlanRequest{P: 4})
	if resp.Status != directory.PlanDraining || resp.Error == "" {
		t.Fatalf("nil daemon plan: %+v", resp)
	}
	if d.Shutdown() != 0 {
		t.Fatal("nil daemon shutdown")
	}
	if !d.Snapshot().Draining {
		t.Fatal("nil daemon should report draining")
	}
	if d.Health() != comm.HealthDegraded {
		t.Fatal("nil daemon should report degraded")
	}
	if d.StatsResponse().Error == "" {
		t.Fatal("nil daemon stats should carry an error")
	}
}

func TestDaemonRejectsBadRequests(t *testing.T) {
	d := newTestDaemon(t, 4, okSource(4), nil, Config{})
	cases := []directory.PlanRequest{
		{P: 1, Kind: directory.PatternUniform}, // too small
		{P: 8, Kind: directory.PatternUniform}, // wrong processor count for this daemon
		{P: 4, Kind: "mystery"},                // unknown pattern
	}
	for i, req := range cases {
		resp := d.Plan(context.Background(), req)
		if resp.OK || resp.Error == "" {
			t.Fatalf("case %d: expected a rejection, got %+v", i, resp)
		}
	}
	if st := d.Snapshot(); st.Rejected != uint64(len(cases)) {
		t.Fatalf("rejected %d, want %d", st.Rejected, len(cases))
	}
}

// TestDaemonRetryAfterScalesWithBacklog: the quoted retry-after grows
// with the backlog it describes.
func TestDaemonRetryAfterScalesWithBacklog(t *testing.T) {
	d := newTestDaemon(t, 4, okSource(4), nil, Config{})
	d.mu.Lock()
	d.est.observe(10 * time.Millisecond)
	idle := d.retryAfterLocked()
	d.inFlight = 8
	busy := d.retryAfterLocked()
	d.inFlight = 0
	d.mu.Unlock()
	if busy <= idle {
		t.Fatalf("retry-after did not grow with backlog: idle %v busy %v", idle, busy)
	}
}

func TestNewDaemonRequiresCommunicator(t *testing.T) {
	if _, err := NewDaemon(nil, nil, Config{}); err == nil {
		t.Fatal("NewDaemon accepted a nil communicator")
	}
}

// TestDaemonConcurrentMixedLoad is a -race workout: many goroutines,
// mixed patterns, all outcomes legal and accounted.
func TestDaemonConcurrentMixedLoad(t *testing.T) {
	var gen atomic.Uint64
	d := newTestDaemon(t, 4, okSource(4), func() (uint64, error) { return gen.Load(), nil },
		Config{Workers: 2, Queue: 8, GenInterval: time.Millisecond})
	var wg sync.WaitGroup
	var unanswered atomic.Int64
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 25; k++ {
				if g == 0 && k%5 == 0 {
					gen.Add(1)
				}
				resp := d.Plan(context.Background(), directory.PlanRequest{P: 4, Kind: directory.PatternRandom,
					Seed: int64(k % 4), DeadlineMS: 2000})
				switch resp.Status {
				case directory.PlanServed, directory.PlanShed, directory.PlanExpired:
				default:
					unanswered.Add(1)
				}
			}
		}(g)
	}
	wg.Wait()
	if n := unanswered.Load(); n != 0 {
		t.Fatalf("%d requests resolved with an unexpected status", n)
	}
	st := d.Snapshot()
	if total := st.Served + st.Shed + st.Expired; total != 16*25 {
		t.Fatalf("outcomes account for %d of %d requests: %+v", total, 16*25, st)
	}
	_ = fmt.Sprintf("%+v", st)
}
