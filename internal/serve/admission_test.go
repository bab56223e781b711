package serve

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"hetsched/internal/comm"
	"hetsched/internal/directory"
	"hetsched/internal/leakcheck"
	"hetsched/internal/model"
	"hetsched/internal/netmodel"
)

// explicitTable spells out, as rows, the matrix the spec
// {p, kind=random, bytes=1<<16, seed} generates: per-pair sizes in
// [1, bytes] drawn row-major over the off-diagonal, as planproto.go
// documents PatternRandom.
func explicitTable(p int, seed int64) [][]int64 {
	rng := rand.New(rand.NewSource(seed))
	rows := make([][]int64, p)
	for i := range rows {
		rows[i] = make([]int64, p)
		for j := range rows[i] {
			if i != j {
				rows[i][j] = 1 + rng.Int63n(1<<16)
			}
		}
	}
	return rows
}

// unevenTable is a network on which the plan depends on the sizes.
func unevenTable(n int) *netmodel.Perf {
	rng := rand.New(rand.NewSource(11))
	perf := netmodel.NewPerf(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				perf.Set(i, j, netmodel.PairPerf{Latency: 1e-4 * (1 + rng.Float64()),
					Bandwidth: 1e6 * (1 + 9*rng.Float64())})
			}
		}
	}
	return perf
}

// TestServedPlanMatchesLibrary: one matrix, sent as explicit rows and as
// the kind=random spec that generates it, answered cold, coalesced and
// from the cache, is always the plan the library computes for it — the
// pattern a flight carries materializes into what the request said. The
// two spellings still do not share a key.
func TestServedPlanMatchesLibrary(t *testing.T) {
	const n, seed, followers = 8, 5, 6
	perf := unevenTable(n)
	rows := explicitTable(n, seed)
	lib, err := comm.New(n, comm.StaticSource(perf), comm.Config{})
	if err != nil {
		t.Fatal(err)
	}
	sizes := model.NewSizes(n)
	for i, row := range rows {
		for j, v := range row {
			sizes.Set(i, j, v)
		}
	}
	want, err := lib.AllToAll(sizes)
	if err != nil {
		t.Fatal(err)
	}
	wantSteps := 0
	if want.Steps != nil {
		wantSteps = len(want.Steps.Steps)
	}

	release := make(chan struct{}) // one token per planning pass
	source := func() (*netmodel.Perf, error) {
		<-release
		return perf, nil
	}
	d := newTestDaemon(t, n, source, nil, Config{Workers: 2})
	check := func(what string, resp directory.PlanResponse, coalesced, cached bool) {
		t.Helper()
		if !resp.OK || resp.Status != directory.PlanServed {
			t.Fatalf("%s: not served: %+v", what, resp)
		}
		if resp.TMax != want.CompletionTime() || resp.TLB != want.LowerBound ||
			resp.Algorithm != want.Algorithm || resp.Steps != wantSteps {
			t.Errorf("%s: served t_max=%v t_lb=%v %s/%d steps, library says %v %v %s/%d", what,
				resp.TMax, resp.TLB, resp.Algorithm, resp.Steps,
				want.CompletionTime(), want.LowerBound, want.Algorithm, wantSteps)
		}
		if resp.Coalesced != coalesced || resp.Cached != cached {
			t.Errorf("%s: coalesced=%v cached=%v, want %v %v", what, resp.Coalesced, resp.Cached, coalesced, cached)
		}
	}
	for form, req := range map[string]directory.PlanRequest{
		"explicit": {Sizes: rows, DeadlineMS: 5000},
		"spec":     {P: n, Kind: directory.PatternRandom, Bytes: 1 << 16, Seed: seed, DeadlineMS: 5000},
	} {
		before := d.Snapshot()
		resps := make([]directory.PlanResponse, 1+followers)
		var wg sync.WaitGroup
		plan := func(i int) {
			defer wg.Done()
			resps[i] = d.Plan(context.Background(), req)
		}
		wg.Add(1)
		go plan(0)
		waitFor(t, "the leader to reach a worker", func() bool { return d.Snapshot().InFlight == 1 })
		for i := 1; i <= followers; i++ {
			wg.Add(1)
			go plan(i)
		}
		waitFor(t, "the followers to attach", func() bool {
			return d.Snapshot().Coalesced == before.Coalesced+followers
		})
		release <- struct{}{}
		wg.Wait()
		check(form+" cold", resps[0], false, false)
		for i := 1; i <= followers; i++ {
			check(form+" coalesced", resps[i], true, false)
		}
		check(form+" cached", d.Plan(context.Background(), req), false, true)
		if st := d.Snapshot(); st.Plans != before.Plans+1 {
			t.Errorf("%s: %d planning passes, want 1 (a shared key would make it 0)", form, st.Plans-before.Plans)
		}
	}
}

// TestHitAndFollowerBuildNoMatrix: a P=50 matrix is 20 KB and its
// generator state another 5 KB. A request that ends in a cache hit, or
// attaches to a flight, allocates a fraction of that: only the flight's
// worker materializes.
func TestHitAndFollowerBuildNoMatrix(t *testing.T) {
	if leakcheck.RaceEnabled {
		t.Skip("race detector instruments allocations")
	}
	const n, perRequest = 50, 4 << 10
	allocated := func() uint64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.TotalAlloc
	}
	perf := perfTable(n)
	release := make(chan struct{})
	source := func() (*netmodel.Perf, error) {
		<-release
		return perf, nil
	}
	d := newTestDaemon(t, n, source, nil, Config{Workers: 1})
	for form, req := range map[string]directory.PlanRequest{
		"explicit": {Sizes: explicitTable(n, 3), DeadlineMS: 5000},
		"spec":     {P: n, Kind: directory.PatternRandom, Bytes: 1 << 16, Seed: 3, DeadlineMS: 5000},
	} {
		const followers = 16
		var wg sync.WaitGroup
		plan := func() {
			defer wg.Done()
			if resp := d.Plan(context.Background(), req); !resp.OK {
				t.Errorf("%s: %+v", form, resp)
			}
		}
		wg.Add(1)
		go plan()
		waitFor(t, "the leader to reach the worker", func() bool { return d.Snapshot().InFlight == 1 })
		before, start := d.Snapshot(), allocated()
		for i := 0; i < followers; i++ {
			wg.Add(1)
			go plan()
		}
		waitFor(t, "the followers to attach", func() bool {
			return d.Snapshot().Coalesced == before.Coalesced+followers
		})
		if got := (allocated() - start) / followers; got > perRequest {
			t.Errorf("%s: a coalesced follower allocated %d bytes, want under %d", form, got, perRequest)
		}
		release <- struct{}{}
		wg.Wait()

		const hits = 100
		start = allocated()
		for i := 0; i < hits; i++ {
			if resp := d.Plan(context.Background(), req); !resp.Cached {
				t.Fatalf("%s: expected a cache hit, got %+v", form, resp)
			}
		}
		if got := (allocated() - start) / hits; got > perRequest {
			t.Errorf("%s: a cache hit allocated %d bytes, want under %d", form, got, perRequest)
		}
	}
}

// TestInvalidTableRefusedBeforeFlight: an explicit table is checked in
// full by the key step, so a bad one is a request error that never
// held a queue slot, a flight, or a matrix.
func TestInvalidTableRefusedBeforeFlight(t *testing.T) {
	d := newTestDaemon(t, 4, okSource(4), nil, Config{})
	cases := map[string][][]int64{
		"ragged":             {{0, 1, 1, 1}, {1, 0, 1}, {1, 1, 0, 1}, {1, 1, 1, 0}},
		"negative":           {{0, 1, 1, 1}, {1, 0, 1, 1}, {1, 1, 0, -1}, {1, 1, 1, 0}},
		"non-zero diagonal":  {{0, 1, 1, 1}, {1, 0, 1, 1}, {1, 1, 0, 1}, {1, 1, 1, 9}},
		"not the daemon's P": {{0, 1, 1}, {1, 0, 1}, {1, 1, 0}},
	}
	for name, rows := range cases {
		resp := d.Plan(context.Background(), directory.PlanRequest{ID: 3, Sizes: rows})
		if resp.OK || resp.Error == "" || resp.Status != "" || resp.ID != 3 {
			t.Errorf("%s: answered %+v, want a request error", name, resp)
		}
	}
	st := d.Snapshot()
	if st.Rejected != uint64(len(cases)) || st.Admitted != 0 || st.Plans != 0 || st.QueueDepth != 0 {
		t.Errorf("after %d invalid tables: %+v", len(cases), st)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.flights) != 0 {
		t.Errorf("%d flights exist for refused requests", len(d.flights))
	}
}

// TestAdmitProcessorCount: a daemon admits exactly its communicator's
// processor count. A request of any other size — smaller, larger or
// absurd, spec or explicit — is refused with one message before its
// table is walked: each explicit table here has a negative entry in its
// first row, which the hashing walk would report instead.
func TestAdmitProcessorCount(t *testing.T) {
	const n = 4
	badRows := func(p int) [][]int64 {
		rows := explicitTable(p, 1)
		rows[0][1] = -1
		return rows
	}
	cases := []struct {
		name string
		req  directory.PlanRequest
		p    int
	}{
		{"spec p<N", directory.PlanRequest{P: n - 1}, n - 1},
		{"spec p=0", directory.PlanRequest{}, 0},
		{"spec p>N", directory.PlanRequest{P: n + 1}, n + 1},
		{"spec p=2^40", directory.PlanRequest{P: 1 << 40}, 1 << 40},
		{"explicit p<N", directory.PlanRequest{Sizes: badRows(n - 1)}, n - 1},
		{"explicit p>N", directory.PlanRequest{Sizes: badRows(n + 1)}, n + 1},
		{"explicit p>N, P=N", directory.PlanRequest{P: n, Sizes: badRows(n + 1)}, n + 1},
	}
	d := newTestDaemon(t, n, okSource(n), nil, Config{})
	for _, c := range cases {
		want := fmt.Sprintf("serve: daemon plans for %d processors, request describes %d", n, c.p)
		if _, err := admitPattern(c.req, n); err == nil || err.Error() != want {
			t.Errorf("%s: admitPattern said %v, want %q", c.name, err, want)
		}
		if resp := d.Plan(context.Background(), c.req); resp.OK || resp.Status != "" || resp.Error != want {
			t.Errorf("%s: answered %+v, want the error %q", c.name, resp, want)
		}
	}
	if st := d.Snapshot(); st.Rejected != uint64(len(cases)) || st.Admitted != 0 {
		t.Errorf("after %d refusals: rejected %d, admitted %d", len(cases), st.Rejected, st.Admitted)
	}
	for name, req := range map[string]directory.PlanRequest{
		"spec p=N":     {P: n},
		"explicit p=N": {Sizes: explicitTable(n, 1)},
	} {
		if resp := d.Plan(context.Background(), req); !resp.OK || resp.Status != directory.PlanServed {
			t.Errorf("%s: answered %+v, want served", name, resp)
		}
	}
}
