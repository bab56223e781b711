// Package comm is the application-level entry point the paper's
// framework builds toward: "network-aware communication at the
// application level" (Section 1). A Communicator owns a source of
// network performance (a directory snapshotting function), plans
// collective operations on demand, and — for the sensor-style
// applications of Section 6.2 that repeat the same exchange — re-serves
// the previous plan while the network has not moved, planning again
// only when it has.
package comm

import (
	"context"
	"fmt"
	"sync"
	"time"

	"hetsched/internal/calib"
	"hetsched/internal/model"
	"hetsched/internal/netmodel"
	"hetsched/internal/obs"
	"hetsched/internal/sched"
)

// Source supplies current network performance — typically
// directory.ResilientClient.Source or Store.Snapshot wrapped in a
// closure.
//
// The returned table is read-only on both sides. The communicator never
// writes to it (model.Build only reads, calibration overlays are
// copy-on-write), so a source may hand the same table to every call and
// to concurrent callers without copying it. In return a source must not
// mutate a table it has handed out: when the network changes it returns
// a different table. The stale rung relies on this: it keeps the
// pointer of the last table served, neither compared nor copied.
type Source func() (*netmodel.Perf, error)

// StaticSource wraps a fixed table as a Source. The table is copied
// once, here, so later writes to perf do not reach the planner.
func StaticSource(perf *netmodel.Perf) Source {
	fixed := perf.Clone()
	return func() (*netmodel.Perf, error) { return fixed, nil }
}

// Config tunes a Communicator.
type Config struct {
	// Scheduler plans total exchanges, repeated ones included; nil
	// selects open shop.
	Scheduler sched.Scheduler
	// Clock supplies the time for staleness decisions; nil selects
	// time.Now. Tests inject a fake clock here.
	Clock func() time.Time
	// Metrics registers the communicator's planning and fallback-ladder
	// instruments (plans, per-rung serve counters,
	// rung transitions, plan-time and per-algorithm schedule-quality
	// histograms) in this registry. Nil disables metrics: every hook
	// degrades to a nil-pointer no-op.
	Metrics *obs.Registry
	// Flight, when set, receives a flight-recorder event per served
	// exchange and triggers a post-mortem dump whenever the fallback
	// ladder transitions downward (fresh→stale, →degraded) — the
	// moment an outage becomes visible to planning. Nil disables it.
	Flight *obs.FlightRecorder
	// Calibrator, when set, closes the measurement loop: ExecuteCtx feeds
	// the executor's per-transfer timings through it, and the fresh and
	// stale rungs of the fallback ladder overlay its trusted per-pair
	// estimates on every snapshot before planning (untrusted and cold
	// pairs keep the snapshot's values — the calibrator distrusts what
	// it cannot corroborate). Nil — the default — disables calibration
	// entirely; the disabled path is byte-identical to a communicator
	// built before calibration existed, allocations included.
	Calibrator *calib.Calibrator
	// CalibSink, when set alongside Calibrator, receives each batch of
	// confident estimates the calibrator drains after an ExecuteCtx —
	// directory.CalibrateSink is the canonical adapter, completing the
	// loop back into the shared directory. Push failures are counted in
	// Stats, never fatal: the calibrator keeps its state and the next
	// drain re-derives anything still worth publishing.
	CalibSink func([]calib.Update) error
}

// Stats counts what the communicator did. When Config.Metrics is set,
// every field is mirrored into the registry (hetsched_comm_*_total and
// hetsched_ladder_served_total) so the same numbers appear on /metrics.
type Stats struct {
	// Plans counts schedules computed; a repeated exchange re-served
	// from the memo computes none.
	Plans int

	// Fallback-ladder counters: which rung served each exchange.
	ServedFresh    int // planned from a live snapshot
	ServedStale    int // planned from the cached last-known-good table
	ServedDegraded int // planned blind with the uniform baseline

	// Calibration-feed counters; all zero while Config.Calibrator is
	// unset.
	CalibBatches    int // executor sample batches fed to the calibrator
	CalibPushes     int // update batches handed to the calibration sink
	CalibPushErrors int // sink pushes that reported failure
}

// Communicator plans network-aware collective communication. It is
// safe for concurrent use: the mutex guards the repeated-exchange memo
// and the counters, while planning itself runs outside the lock
// (schedulers are concurrent-safe by the sched.Scheduler contract).
type Communicator struct {
	n      int
	source Source
	cfg    Config
	tel    commTelemetry

	mu    sync.Mutex // guards the fields below
	memo  *memoEntry // the repeated-exchange memo; nil until the first plan
	stats Stats
	// fallback-ladder state
	lastPerf   *netmodel.Perf // last table the source served successfully
	lastPerfAt time.Time
	health     Health
}

// New creates a communicator for an n-processor system.
func New(n int, source Source, cfg Config) (*Communicator, error) {
	if n < 0 {
		return nil, fmt.Errorf("comm: negative processor count")
	}
	if source == nil {
		return nil, fmt.Errorf("comm: nil source")
	}
	if cfg.Scheduler == nil {
		cfg.Scheduler = sched.NewOpenShop()
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	if cfg.Calibrator != nil && cfg.Calibrator.N() != n {
		return nil, fmt.Errorf("comm: calibrator is for %d processors, communicator for %d", cfg.Calibrator.N(), n)
	}
	if cfg.CalibSink != nil && cfg.Calibrator == nil {
		return nil, fmt.Errorf("comm: calibration sink set without a calibrator to drain")
	}
	return &Communicator{n: n, source: source, cfg: cfg, tel: newCommTelemetry(cfg.Metrics)}, nil
}

// N returns the number of processors the communicator plans for.
func (c *Communicator) N() int { return c.n }

// Health reports which rung of the fallback ladder served the most
// recent exchange (ok before any exchange has run).
func (c *Communicator) Health() Health {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.health
}

// Stats returns the planning counters.
func (c *Communicator) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// ladderTable runs the fallback ladder: a fresh source snapshot, then
// the cached last-known-good table if it is within DefaultStaleBound,
// then the uniform baseline model. It returns the table to build the
// cost matrix from — calibration already overlaid — and the rung that
// produced it; an error is returned only for caller bugs (shape
// mismatches) or a broken source contract — never for a mere source
// outage, which the ladder absorbs.
func (c *Communicator) ladderTable(sizes *model.Sizes) (*netmodel.Perf, Health, error) {
	if sizes.N() != c.n {
		return nil, HealthOK, fmt.Errorf("comm: sizes are for %d processors, communicator for %d", sizes.N(), c.n)
	}
	perf, err := c.source()
	if err == nil {
		if perf.N() != c.n {
			return nil, HealthOK, fmt.Errorf("comm: directory reports %d processors, want %d", perf.N(), c.n)
		}
		c.mu.Lock()
		// The stale rung keeps the table exactly as served: a source
		// never mutates a table it has handed out (see Source). The
		// cache holds the RAW snapshot — calibration is overlaid at
		// build time, so an estimate that loses trust later stops
		// being applied to the cached table too.
		c.lastPerf = perf
		c.lastPerfAt = c.cfg.Clock()
		c.mu.Unlock()
		return c.calibrated(perf), HealthOK, nil
	}
	// Rung 2: the cached table, while it is young enough to beat
	// guessing. Served tables are never mutated, so reading outside the
	// lock is safe (calibrated overlays copy-on-write).
	c.mu.Lock()
	cached, at := c.lastPerf, c.lastPerfAt
	c.mu.Unlock()
	if cached != nil && c.cfg.Clock().Sub(at) <= DefaultStaleBound {
		return c.calibrated(cached), HealthStale, nil
	}
	// Rung 3: no usable knowledge; the uniform model still yields a
	// valid, contention-free schedule structure.
	return uniformPerf(c.n), HealthDegraded, nil
}

// snapshotMatrix builds the cost matrix from the ladder's table into
// dst and returns dst.
func (c *Communicator) snapshotMatrix(sizes *model.Sizes, dst *model.Matrix) (*model.Matrix, Health, error) {
	perf, h, err := c.ladderTable(sizes)
	if err != nil {
		return nil, h, err
	}
	return dst, h, model.BuildInto(dst, perf, sizes)
}

// noteServed records the rung that served an exchange — in the stats,
// the metric surface, the flight recorder, and (on a downward ladder
// transition) a triggered flight dump. A transition is also a "ladder"
// mark on the request trace ctx carries. ctx supplies the trace ID the
// flight event is tagged with; context.Background() means untraced.
func (c *Communicator) noteServed(ctx context.Context, h Health) {
	c.mu.Lock()
	prev := c.health
	c.health = h
	switch h {
	case HealthOK:
		c.stats.ServedFresh++
	case HealthStale:
		c.stats.ServedStale++
	case HealthDegraded:
		c.stats.ServedDegraded++
	}
	c.mu.Unlock()
	c.tel.noteRung(prev, h)
	if prev != h {
		obs.Mark(ctx, "comm", "ladder", ladderNotes[prev][h])
	}
	fl := c.cfg.Flight
	if fl == nil {
		return
	}
	fl.Record("comm", rungEvent(h), obs.TraceFrom(ctx).TraceID, int64(prev), int64(h))
	if h > prev {
		// The ladder just stepped down: the events leading here are the
		// post-mortem, so capture them now (best-effort, rate-limited).
		fl.Trigger("health-ladder degradation")
	}
}

// rungEvent maps a rung to its constant flight-recorder event name.
func rungEvent(h Health) string {
	switch h {
	case HealthOK:
		return "served_fresh"
	case HealthStale:
		return "served_stale"
	case HealthDegraded:
		return "served_degraded"
	}
	return "served_unknown"
}

// tagResult marks a result produced below the fresh rung.
func tagResult(r *sched.Result, h Health) *sched.Result {
	if h != HealthOK {
		r.Algorithm += "+" + h.String()
	}
	return r
}

// AllToAll plans a one-shot total exchange from a fresh directory
// snapshot with the configured scheduler. When the source fails it
// degrades along the fallback ladder instead of returning an error:
// the cached table (result tagged "+stale"), then the uniform-model
// caterpillar baseline ("+degraded"). Health reports the rung used.
func (c *Communicator) AllToAll(sizes *model.Sizes) (*sched.Result, error) {
	r, _, err := c.AllToAllHealthCtx(context.Background(), sizes)
	return r, err
}

// AllToAllHealthCtx is AllToAll returning the fallback-ladder rung that
// served *this* exchange, for callers that share one communicator
// across many concurrent requests, where reading Health() after the
// call races other exchanges. It also carries request-scoped trace
// correlation: when ctx holds an obs.ReqTrace, the planning pass is
// recorded as a span on that request's tree, and flight-recorder
// events are tagged with its trace ID.
func (c *Communicator) AllToAllHealthCtx(ctx context.Context, sizes *model.Sizes) (*sched.Result, Health, error) {
	return c.AllToAllScratch(ctx, sizes, new(PlanScratch))
}

// AllToAllScratch is AllToAllHealthCtx planned in caller-owned
// memory: the cost matrix is built into sc and, when the rung's
// scheduler can (sched.ScheduleIn), the plan is made in sc too. The
// result is valid only until the next call with the same scratch.
func (c *Communicator) AllToAllScratch(ctx context.Context, sizes *model.Sizes, sc *PlanScratch) (*sched.Result, Health, error) {
	m, h, err := c.snapshotMatrix(sizes, &sc.matrix)
	if err != nil {
		return nil, h, err
	}
	r, err := c.schedule(ctx, m, h, "oneshot", &sc.plan)
	if err != nil {
		return nil, h, err
	}
	c.noteServed(ctx, h)
	return tagResult(r, h), h, nil
}

// schedule plans m with the rung's scheduler — the configured one, or
// the blind baseline on the degraded rung — in plan, which may be nil
// (see sched.ScheduleIn), and counts the plan.
func (c *Communicator) schedule(ctx context.Context, m *model.Matrix, h Health, kind string, plan *sched.Scratch) (*sched.Result, error) {
	scheduler := c.cfg.Scheduler
	if h == HealthDegraded {
		scheduler = sched.Baseline{}
	}
	c.mu.Lock()
	c.stats.Plans++
	c.mu.Unlock()
	c.tel.plans.Inc()
	return c.timedSchedule(ctx, scheduler, m, kind, plan)
}
