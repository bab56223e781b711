package serve

import (
	"time"

	"hetsched/internal/obs"
)

// telemetry is the daemon's metric surface. Every obs primitive is
// nil-safe end to end, so a daemon with no registry pays only these
// no-op calls. Spans ride the request's ctx instead (obs.StartSpan).
type telemetry struct {
	m *obs.Registry
}

func (t telemetry) outcome(o string) {
	t.m.Counter(obs.MetricServeRequests, "Plan requests resolved, by outcome.",
		obs.L("outcome", o)).Inc()
}

func (t telemetry) coalescedHit() {
	t.m.Counter(obs.MetricServeCoalesced,
		"Plan requests coalesced onto an identical in-flight request.").Inc()
}

func (t telemetry) cacheHit() {
	t.m.Counter(obs.MetricServeCacheHits,
		"Plan requests answered from the versioned plan cache.").Inc()
}

func (t telemetry) conn() {
	t.m.Counter(obs.MetricServeConns,
		"Connections accepted by the plan-serving daemon.").Inc()
}

func (t telemetry) queueDepth(n int) {
	t.m.Gauge(obs.MetricServeQueueDepth,
		"Plan requests waiting in the admission queue.").Set(float64(n))
}

func (t telemetry) inFlight(n int) {
	t.m.Gauge(obs.MetricServeInFlight,
		"Plan requests currently being planned.").Set(float64(n))
}

func (t telemetry) queueWait(d time.Duration) {
	t.m.Histogram(obs.MetricServeQueueWait,
		"Time plan requests spent queued before a worker picked them up.",
		obs.DurationBuckets).Observe(d.Seconds())
}

func (t telemetry) latency(d time.Duration, trace uint64) {
	t.m.Histogram(obs.MetricServeLatency,
		"End-to-end latency of served plan requests.",
		obs.DurationBuckets).ObserveExemplar(d.Seconds(), trace)
}

func (t telemetry) tailRetained(reason string) {
	t.m.Counter(obs.MetricServeTailRetained,
		"Request span trees retained by the tail sampler, by reason.",
		obs.L("reason", reason)).Inc()
}

func (t telemetry) tailDropped() {
	t.m.Counter(obs.MetricServeTailDropped,
		"Request span trees dropped by the tail sampler as uninteresting.").Inc()
}
