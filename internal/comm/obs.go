package comm

import (
	"context"
	"time"

	"hetsched/internal/model"
	"hetsched/internal/obs"
	"hetsched/internal/sched"
)

// Telemetry wiring. A Communicator resolves its instruments once at
// construction from Config.Metrics; when it is nil every hook below is
// a nil-pointer no-op, so the planning hot path pays a single boolean
// check (verified by BenchmarkAllToAllTelemetry* in obs_bench_test.go).
// Spans and marks go on the request trace the ctx carries, if any.

// commTelemetry holds the communicator's resolved instruments. The
// zero value (telemetry disabled) makes every method a no-op.
type commTelemetry struct {
	enabled  bool
	registry *obs.Registry

	plans       *obs.Counter
	served      [3]*obs.Counter // indexed by Health
	planSeconds *obs.Histogram
}

// newCommTelemetry resolves instruments; reg may be nil.
func newCommTelemetry(reg *obs.Registry) commTelemetry {
	t := commTelemetry{enabled: reg != nil, registry: reg}
	if reg == nil {
		return t
	}
	t.plans = reg.Counter(obs.MetricCommPlans, "Schedules computed from scratch.")
	for h := HealthOK; h <= HealthDegraded; h++ {
		t.served[h] = reg.Counter(obs.MetricLadderServed,
			"Exchanges served, by fallback-ladder rung.", obs.L("rung", rungLabel(h)))
	}
	t.planSeconds = reg.Histogram(obs.MetricPlanSeconds,
		"Wall-clock time spent planning one exchange.", obs.DurationBuckets)
	return t
}

// rungLabel maps a Health to its metric label ("fresh" rather than
// "ok", matching the Stats field names).
func rungLabel(h Health) string {
	switch h {
	case HealthOK:
		return "fresh"
	case HealthStale:
		return "stale"
	case HealthDegraded:
		return "degraded"
	}
	return "unknown"
}

// ladderNotes names every rung transition, indexed [from][to], so a
// ladder mark on a request trace builds no string.
var ladderNotes = [3][3]string{
	HealthOK:       {HealthStale: "fresh→stale", HealthDegraded: "fresh→degraded"},
	HealthStale:    {HealthOK: "stale→fresh", HealthDegraded: "stale→degraded"},
	HealthDegraded: {HealthOK: "degraded→fresh", HealthStale: "degraded→stale"},
}

// noteRung records which rung served an exchange and, when the rung
// changed, the transition as a labeled counter — the machine-readable
// version of "the ladder dropped to stale at 12:03".
func (t *commTelemetry) noteRung(prev, h Health) {
	if !t.enabled {
		return
	}
	if h >= HealthOK && h <= HealthDegraded {
		t.served[h].Inc()
	}
	if prev == h {
		return
	}
	t.registry.Counter(obs.MetricLadderTransitions,
		"Fallback-ladder rung changes, by from/to rung.",
		obs.L("from", rungLabel(prev)), obs.L("to", rungLabel(h))).Inc()
}

// quality returns the t_max/t_lb histogram for an algorithm (nil when
// metrics are disabled). Resolution goes through the registry so new
// algorithm names appear as new label values without pre-registration.
func (t *commTelemetry) quality(algorithm string) *obs.Histogram {
	return t.registry.Histogram(obs.MetricScheduleQuality,
		"Schedule quality t_max/t_lb, by algorithm.", obs.RatioBuckets,
		obs.L("algorithm", algorithm))
}

// timedSchedule runs the scheduler with a plan span, the plan-time
// histogram, and the per-algorithm quality sample: it times the call
// with the injectable clock, records the plan-time sample and — when
// ctx carries a request trace — a span on that request's tree, and
// observes the result's quality ratio under the result's (untagged)
// algorithm name. With telemetry disabled and no trace it is exactly
// s.Schedule(m).
func (c *Communicator) timedSchedule(ctx context.Context, s sched.Scheduler, m *model.Matrix, kind string) (*sched.Result, error) {
	if !c.tel.enabled && obs.ReqTraceFrom(ctx) == nil {
		return s.Schedule(m)
	}
	_, rsp := obs.StartSpan(ctx, "comm", kind)
	start := c.cfg.Clock()
	r, err := s.Schedule(m)
	elapsed := c.cfg.Clock().Sub(start)
	c.tel.planSeconds.Observe(float64(elapsed) / float64(time.Second))
	if err != nil {
		rsp.SetNote(err.Error())
		rsp.End()
		return nil, err
	}
	rsp.SetNote(r.Algorithm)
	rsp.End()
	c.tel.quality(r.Algorithm).Observe(r.Ratio())
	return r, nil
}
