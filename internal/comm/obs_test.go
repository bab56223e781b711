package comm

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"hetsched/internal/model"
	"hetsched/internal/netmodel"
	"hetsched/internal/obs"
)

// counterValue reads a counter back out of the registry by resolving
// the same (name, labels) — Registry.Counter is get-or-create, so this
// returns the instrument the communicator incremented.
func counterValue(reg *obs.Registry, name string, labels ...obs.Label) uint64 {
	return reg.Counter(name, "", labels...).Value()
}

func TestTelemetryLadderAndQuality(t *testing.T) {
	reg := obs.New()
	ok := true
	now := time.Unix(5000, 0)
	perf := netmodel.Gusto()
	c, err := New(5, func() (*netmodel.Perf, error) {
		if ok {
			return perf.Clone(), nil
		}
		return nil, errors.New("directory down")
	}, Config{Clock: func() time.Time { return now }, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	sizes := model.UniformSizes(5, 1<<20)
	if _, err := c.AllToAll(sizes); err != nil {
		t.Fatal(err)
	}
	ok = false // the cache is past the stale bound: straight to degraded
	now = now.Add(DefaultStaleBound + time.Second)
	if _, err := c.AllToAll(sizes); err != nil {
		t.Fatal(err)
	}

	if got := counterValue(reg, obs.MetricCommPlans); got != 2 {
		t.Errorf("plans counter = %d, want 2", got)
	}
	if got := counterValue(reg, obs.MetricLadderServed, obs.L("rung", "fresh")); got != 1 {
		t.Errorf("served{fresh} = %d, want 1", got)
	}
	if got := counterValue(reg, obs.MetricLadderServed, obs.L("rung", "degraded")); got != 1 {
		t.Errorf("served{degraded} = %d, want 1", got)
	}
	if got := counterValue(reg, obs.MetricLadderTransitions,
		obs.L("from", "fresh"), obs.L("to", "degraded")); got != 1 {
		t.Errorf("transitions{fresh→degraded} = %d, want 1", got)
	}
	if got := reg.Histogram(obs.MetricPlanSeconds, "", obs.DurationBuckets).Count(); got != 2 {
		t.Errorf("plan-seconds count = %d, want 2", got)
	}
	for _, alg := range []string{"openshop", "baseline"} {
		h := reg.Histogram(obs.MetricScheduleQuality, "", obs.RatioBuckets, obs.L("algorithm", alg))
		if h.Count() != 1 {
			t.Errorf("quality{%s} count = %d, want 1", alg, h.Count())
		}
		if h.Sum() < 1 {
			t.Errorf("quality{%s} sum = %g, want ≥ 1 (t_max/t_lb)", alg, h.Sum())
		}
	}
}

// TestLadderMark: a request trace on the exchange that steps the ladder
// down gets its plan span and a "ladder" mark naming both rungs.
func TestLadderMark(t *testing.T) {
	ok := true
	perf := netmodel.Gusto()
	c, err := New(5, func() (*netmodel.Perf, error) {
		if ok {
			return perf.Clone(), nil
		}
		return nil, errors.New("directory down")
	}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	sizes := model.UniformSizes(5, 1<<20)
	fresh := obs.NewReqTrace(0, nil)
	if _, h, err := c.AllToAllHealthCtx(obs.WithReqTrace(context.Background(), fresh), sizes); err != nil || h != HealthOK {
		t.Fatalf("fresh exchange: health %v, err %v", h, err)
	}
	for _, rec := range fresh.Spans() {
		if rec.Name == "ladder" {
			t.Errorf("ladder mark without a transition: %+v", rec)
		}
	}
	ok = false
	stale := obs.NewReqTrace(0, nil)
	if _, h, err := c.AllToAllHealthCtx(obs.WithReqTrace(context.Background(), stale), sizes); err != nil || h != HealthStale {
		t.Fatalf("stale exchange: health %v, err %v", h, err)
	}
	var names []string
	for _, rec := range stale.Spans() {
		names = append(names, rec.Track+"/"+rec.Name+":"+rec.Note)
	}
	if got, want := strings.Join(names, " "), "comm/oneshot:openshop comm/ladder:fresh→stale"; got != want {
		t.Errorf("stale exchange trace = %q, want %q", got, want)
	}
}

// TestTelemetryMirrorsStats drives the repeated-exchange path through
// a first plan, an unchanged round re-served from the memo, and a
// drifted round, and checks the registry counters agree with the Stats
// struct — the same numbers must appear on /metrics.
func TestTelemetryMirrorsStats(t *testing.T) {
	reg := obs.New()
	perf := netmodel.Gusto()
	c, err := New(5, func() (*netmodel.Perf, error) { return perf.Clone(), nil },
		Config{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	sizes := model.UniformSizes(5, 1<<20)
	for round := 0; round < 3; round++ {
		if round == 2 {
			pp := perf.At(0, 1)
			pp.Bandwidth /= 100
			perf.Set(0, 1, pp)
		}
		if _, err := c.AllToAllRepeated(sizes); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Plans != 2 || st.ServedFresh != 3 {
		t.Fatalf("test did not exercise a re-served round: %+v", st)
	}
	if got := counterValue(reg, obs.MetricCommPlans); got != uint64(st.Plans) {
		t.Errorf("%s = %d, stats say %d", obs.MetricCommPlans, got, st.Plans)
	}
	if got := counterValue(reg, obs.MetricLadderServed, obs.L("rung", "fresh")); got != uint64(st.ServedFresh) {
		t.Errorf("served{fresh} = %d, stats say %d", got, st.ServedFresh)
	}
}

func TestTelemetryDisabledIsInert(t *testing.T) {
	c := newComm(t, netmodel.Gusto(), Config{})
	if c.tel.enabled {
		t.Fatal("telemetry enabled with no registry")
	}
	sizes := model.UniformSizes(5, 1<<10)
	if _, err := c.AllToAll(sizes); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AllToAllRepeated(sizes); err != nil {
		t.Fatal(err)
	}
}
