package serve

import (
	"context"
	"fmt"
	"sync"
	"time"

	"hetsched/internal/calib"
	"hetsched/internal/comm"
	"hetsched/internal/directory"
	"hetsched/internal/obs"
)

// wallClock is this package's single sanctioned wall-clock source.
// Every deadline — request budgets, queue waits, drain windows — flows
// through an injectable clock defaulting to it.
//
//hetvet:ignore determinism the package's one wall-clock default; every other site injects
var wallClock = time.Now

// GenFunc reports the directory's current generation (store version).
// The daemon rate-limits probes and keys its plan cache on the result;
// a nil GenFunc pins generation 0, which suits static tables. Probe
// failures keep the last known generation — consistent with the
// communicator's stale-serving ladder, the daemon prefers last-known-
// good answers over refusing service.
type GenFunc func() (uint64, error)

// Config tunes the daemon. The zero value selects workable defaults.
type Config struct {
	// Queue bounds the admission queue; requests arriving with the
	// queue full are shed with an explicit retry-after. 0 selects 64.
	Queue int
	// Workers is the number of concurrent planning workers, which is
	// also the in-flight budget. 0 selects 4.
	Workers int
	// DefaultDeadline is the per-request budget when the client sends
	// none; MaxDeadline caps client-supplied budgets. Queue wait counts
	// against the budget. Defaults: 1s and 10s.
	DefaultDeadline time.Duration
	MaxDeadline     time.Duration
	// MinRetryAfter and MaxRetryAfter clamp the retry-after hint quoted
	// on shed and expired responses. Defaults: 5ms and 2s.
	MinRetryAfter time.Duration
	MaxRetryAfter time.Duration
	// DrainTimeout is how long Shutdown lets workers finish the queued
	// backlog before force-answering the remainder with draining
	// responses. 0 selects 5s.
	DrainTimeout time.Duration
	// GenInterval rate-limits directory generation probes: at most one
	// synchronous probe per interval rides an incoming request, so an
	// idle daemon makes no directory traffic at all. 0 selects 250ms.
	GenInterval time.Duration
	// CacheCap bounds the versioned plan cache (entries). 0 selects 256.
	CacheCap int
	// MaxP bounds accepted matrix sizes before any allocation happens;
	// requests must still match the communicator's processor count.
	// 0 selects 512.
	MaxP int
	// Clock is the injectable time source (nil selects the wall clock).
	Clock func() time.Time
	// Metrics receives serve telemetry; nil disables it.
	Metrics *obs.Registry
	// Flight, when set, receives structured flight-recorder events for
	// every request outcome — the always-on post-mortem ring.
	Flight *obs.FlightRecorder
	// Tail, when set, arms request-scoped span tracing: every request
	// gets a span tree, and trees whose request erred, was shed or
	// expired, or ran past the estimator's p99 are retained in the
	// sampler. Nil disables per-request tracing entirely.
	Tail *obs.TailSampler
	// TailAll retains every span tree regardless of outcome (tests,
	// short debugging sessions); the sampler cap still bounds memory.
	TailAll bool
	// Calib, when set, surfaces the communicator's network calibrator
	// on /statusz: per-pair confidence, trust counts, and the
	// lowest-confidence pairs. Purely observational — the daemon never
	// feeds or drains the calibrator itself.
	Calib *calib.Calibrator
}

func (cfg Config) withDefaults() Config {
	if cfg.Queue <= 0 {
		cfg.Queue = 64
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.DefaultDeadline <= 0 {
		cfg.DefaultDeadline = time.Second
	}
	if cfg.MaxDeadline <= 0 {
		cfg.MaxDeadline = 10 * time.Second
	}
	if cfg.MinRetryAfter <= 0 {
		cfg.MinRetryAfter = 5 * time.Millisecond
	}
	if cfg.MaxRetryAfter <= 0 {
		cfg.MaxRetryAfter = 2 * time.Second
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 5 * time.Second
	}
	if cfg.GenInterval <= 0 {
		cfg.GenInterval = 250 * time.Millisecond
	}
	if cfg.CacheCap <= 0 {
		cfg.CacheCap = 256
	}
	if cfg.MaxP <= 0 {
		cfg.MaxP = 512
	}
	if cfg.Clock == nil {
		cfg.Clock = wallClock
	}
	return cfg
}

// Daemon is the planning service: a bounded admission queue in front
// of a fixed worker pool sharing one communicator. Overload never
// queues unboundedly — it is converted into explicit shed responses
// with retry-after hints, and requests whose deadline can no longer
// cover the going planning cost are expired at dequeue instead of
// being planned for nobody. Identical concurrent requests coalesce
// onto a single planning pass, and answered plans are cached per
// directory generation. A nil *Daemon fails closed: every method
// returns a refusal rather than panicking.
type Daemon struct {
	comm *comm.Communicator
	gen  GenFunc
	cfg  Config
	tel  telemetry

	tasks chan *flight
	quit  chan struct{}
	wg    sync.WaitGroup

	mu         sync.Mutex
	flights    map[flightKey]*flight
	cache      *planCache
	est        *costEstimator
	curGen     uint64
	genChecked time.Time
	genProbing bool
	inFlight   int
	draining   bool
	stats      directory.ServeStats
}

// NewDaemon builds a daemon over an existing communicator (which
// carries the directory source and fallback ladder) and starts its
// workers. gen may be nil for static tables.
//
//hetvet:ignore tracectx process-lifetime worker pool; requests carry their ctx through Plan, not construction
func NewDaemon(c *comm.Communicator, gen GenFunc, cfg Config) (*Daemon, error) {
	if c == nil {
		return nil, fmt.Errorf("serve: NewDaemon needs a communicator")
	}
	cfg = cfg.withDefaults()
	d := &Daemon{
		comm:    c,
		gen:     gen,
		cfg:     cfg,
		tel:     telemetry{m: cfg.Metrics},
		tasks:   make(chan *flight, cfg.Queue),
		quit:    make(chan struct{}),
		flights: make(map[flightKey]*flight),
		cache:   newPlanCache(cfg.CacheCap),
		est:     newCostEstimator(),
	}
	for i := 0; i < cfg.Workers; i++ {
		d.wg.Add(1)
		go d.worker()
	}
	return d, nil
}

// Plan resolves one plan request. It never blocks past the request's
// deadline and never returns an error: every outcome is a response
// shape — served (possibly coalesced or cached), shed with
// retry-after, expired, draining, or rejected with a reason. ctx
// carries the request's trace correlation (obs.TraceContext); when the
// daemon's tail sampler is armed, a span tree is recorded for the
// request and retained if the outcome is interesting.
//
// The daemon only reads req.Sizes, and it may go on reading them after
// Plan returns: a request that times out leaves its flight queued with
// the rows, and a worker builds the matrix from them when it gets
// there. An in-process caller must not modify the rows of a request it
// has submitted. (A wire request owns the slab it was decoded into.)
func (d *Daemon) Plan(ctx context.Context, req directory.PlanRequest) directory.PlanResponse {
	if d == nil {
		return directory.PlanResponse{ID: req.ID, Status: directory.PlanDraining,
			Error: "serve: nil daemon"}
	}
	start := d.cfg.Clock()
	ctx, rt, root := d.beginRequest(ctx, req.Trace)
	return d.endRequest(ctx, rt, root, d.plan(ctx, req, start), start)
}

// beginRequest resolves the request's trace ID (context first, then the
// wire field, then a fresh ID when the tail sampler is armed) and, when
// tracing, opens the root "request" span. With no sampler armed it only
// binds the trace ID so exemplars and flight events still correlate.
func (d *Daemon) beginRequest(ctx context.Context, wire string) (context.Context, *obs.ReqTrace, *obs.ReqSpan) {
	id := obs.TraceFrom(ctx).TraceID
	if id == 0 {
		id, _ = obs.ParseTraceID(wire)
	}
	if d.cfg.Tail == nil {
		if id != 0 {
			ctx = obs.WithTrace(ctx, obs.TraceContext{TraceID: id})
		}
		return ctx, nil, nil
	}
	rt := obs.NewReqTrace(id, d.cfg.Clock)
	ctx = obs.WithReqTrace(ctx, rt)
	ctx, root := obs.StartSpan(ctx, "serve", "request")
	return ctx, rt, root
}

// endRequest is the request's observability epilogue: it stamps the
// trace ID on the response and, when tracing, closes the root span and
// offers the span tree to the tail sampler.
func (d *Daemon) endRequest(ctx context.Context, rt *obs.ReqTrace, root *obs.ReqSpan,
	resp directory.PlanResponse, start time.Time) directory.PlanResponse {
	if id := obs.TraceFrom(ctx).TraceID; id != 0 {
		resp.Trace = obs.FormatTraceID(id)
	}
	if rt == nil {
		return resp
	}
	outcome := outcomeOf(resp)
	latency := d.cfg.Clock().Sub(start)
	root.SetNote(outcome)
	root.End()
	rt.SetOutcome(outcome, latency)
	keep, reason := d.tailDecision(resp, latency)
	if d.cfg.Tail.Offer(rt, keep) {
		d.tel.tailRetained(reason)
	} else {
		d.tel.tailDropped()
	}
	return resp
}

// tailDecision implements the tail-sampling policy: keep every errored,
// shed, expired, or draining request, every served request slower than
// the estimator's p99 planning cost, and (under TailAll) everything.
func (d *Daemon) tailDecision(resp directory.PlanResponse, latency time.Duration) (keep bool, reason string) {
	switch {
	case resp.Error != "":
		return true, "error"
	case resp.Status == directory.PlanShed:
		return true, "shed"
	case resp.Status == directory.PlanExpired:
		return true, "expired"
	case resp.Status == directory.PlanDraining:
		return true, "draining"
	}
	d.mu.Lock()
	p99 := d.est.p99()
	d.mu.Unlock()
	if p99 > 0 && latency > p99 {
		return true, "slow"
	}
	if d.cfg.TailAll {
		return true, "all"
	}
	return false, ""
}

// plan is the admission state machine behind Plan; every exit runs
// through finish. Admission is digest-first: a request is validated and
// keyed (admitPattern) but not materialized, so one that ends in a
// cache hit or attaches to a flight has cost one pass over its sizes.
func (d *Daemon) plan(ctx context.Context, req directory.PlanRequest, start time.Time) directory.PlanResponse {
	pat, err := admitPattern(req, d.cfg.MaxP)
	if err == nil && pat.p != d.comm.N() {
		err = fmt.Errorf("serve: daemon plans for %d processors, request describes %d",
			d.comm.N(), pat.p)
	}
	if err != nil {
		return d.finish(ctx, directory.PlanResponse{ID: req.ID, Error: err.Error()}, start)
	}
	deadline := start.Add(d.budget(req))
	d.maybeRefreshGen(start)

	d.mu.Lock()
	if d.draining {
		ra := d.cfg.DrainTimeout
		d.mu.Unlock()
		return d.finish(ctx, directory.PlanResponse{ID: req.ID, Status: directory.PlanDraining,
			RetryAfterMS: int64(ra / time.Millisecond)}, start)
	}
	key := flightKey{hash: pat.key, gen: d.curGen}
	if resp, ok := d.cache.get(key); ok {
		d.stats.Admitted++
		d.stats.CacheHits++
		d.mu.Unlock()
		d.tel.cacheHit()
		obs.Mark(ctx, "serve", "cache_hit", "")
		resp.ID = req.ID
		resp.Cached = true
		resp.QueueWaitMS = 0
		return d.finish(ctx, resp, start)
	}
	if fl, ok := d.flights[key]; ok {
		d.stats.Admitted++
		d.stats.Coalesced++
		d.mu.Unlock()
		d.tel.coalescedHit()
		obs.Mark(ctx, "serve", "coalesce", "")
		return d.await(ctx, fl, req.ID, deadline, true, start)
	}
	fl := newFlight(ctx, key, pat, start, deadline)
	d.flights[key] = fl
	admitted := false
	//hetvet:ignore lockio non-blocking admission gate; the send cannot stall while the lock is held
	select {
	case d.tasks <- fl:
		admitted = true
	default:
	}
	if !admitted {
		delete(d.flights, key)
		ra := d.retryAfterLocked()
		d.mu.Unlock()
		return d.finish(ctx, directory.PlanResponse{ID: req.ID, Status: directory.PlanShed,
			RetryAfterMS: int64(ra / time.Millisecond)}, start)
	}
	d.stats.Admitted++
	depth := len(d.tasks)
	d.mu.Unlock()
	d.tel.queueDepth(depth)
	return d.await(ctx, fl, req.ID, deadline, false, start)
}

// budget clamps the client-supplied deadline into the daemon's window.
func (d *Daemon) budget(req directory.PlanRequest) time.Duration {
	b := time.Duration(req.DeadlineMS) * time.Millisecond
	if b <= 0 {
		b = d.cfg.DefaultDeadline
	}
	if b > d.cfg.MaxDeadline {
		b = d.cfg.MaxDeadline
	}
	return b
}

// await blocks until the flight resolves or the waiter's own deadline
// passes, whichever is first, and personalizes the shared response.
// Followers coalesced onto a flight keep their own deadlines: a
// short-deadline follower can expire while the flight is still worth
// finishing for its leader.
func (d *Daemon) await(ctx context.Context, fl *flight, id uint64, deadline time.Time, coalesced bool, start time.Time) directory.PlanResponse {
	wait := deadline.Sub(d.cfg.Clock())
	var timeout <-chan time.Time
	if wait > 0 {
		tm := time.NewTimer(wait)
		defer tm.Stop()
		timeout = tm.C
	} else {
		select {
		case <-fl.done:
		default:
			return d.finish(ctx, d.expired(id), start)
		}
	}
	select {
	case <-fl.done:
		resp := fl.resp
		resp.ID = id
		resp.Coalesced = coalesced
		return d.finish(ctx, resp, start)
	case <-timeout:
		return d.finish(ctx, d.expired(id), start)
	}
}

// expired builds the response for a request whose deadline passed
// while it waited.
func (d *Daemon) expired(id uint64) directory.PlanResponse {
	d.mu.Lock()
	ra := d.retryAfterLocked()
	d.mu.Unlock()
	return directory.PlanResponse{ID: id, Status: directory.PlanExpired,
		RetryAfterMS: int64(ra / time.Millisecond)}
}

// retryAfterLocked estimates how long the present backlog needs to
// clear: the p95 planning cost times the backlog depth per worker,
// clamped into the configured window. Callers hold d.mu.
func (d *Daemon) retryAfterLocked() time.Duration {
	est := d.est.p95()
	if est <= 0 {
		est = d.cfg.MinRetryAfter
	}
	backlog := len(d.tasks) + d.inFlight
	ra := est * time.Duration(backlog/d.cfg.Workers+1)
	if ra < d.cfg.MinRetryAfter {
		ra = d.cfg.MinRetryAfter
	}
	if ra > d.cfg.MaxRetryAfter {
		ra = d.cfg.MaxRetryAfter
	}
	return ra
}

// finish is the single exit point for every request: it folds the
// outcome into the stats, metric, and flight-recorder surfaces, then
// returns the response unchanged.
func (d *Daemon) finish(ctx context.Context, resp directory.PlanResponse, start time.Time) directory.PlanResponse {
	d.mu.Lock()
	switch resp.Status {
	case directory.PlanServed:
		d.stats.Served++
		switch resp.Health {
		case comm.HealthOK.String():
			d.stats.ServedFresh++
		case comm.HealthStale.String():
			d.stats.ServedStale++
		case comm.HealthDegraded.String():
			d.stats.ServedDegraded++
		}
	case directory.PlanShed:
		d.stats.Shed++
	case directory.PlanExpired:
		d.stats.Expired++
	case directory.PlanDraining:
		d.stats.Drained++
	default:
		d.stats.Rejected++
	}
	depth := len(d.tasks)
	d.mu.Unlock()
	trace := obs.TraceFrom(ctx).TraceID
	latency := d.cfg.Clock().Sub(start)
	d.tel.outcome(outcomeOf(resp))
	if resp.Status == directory.PlanServed {
		d.tel.latency(latency, trace)
	}
	d.cfg.Flight.Record("serve", flightEventOf(resp),
		trace, int64(latency/time.Microsecond), int64(depth))
	return resp
}

// flightEventOf maps a response to its constant flight-recorder event
// name (constants only: the record path must not concatenate strings).
func flightEventOf(resp directory.PlanResponse) string {
	switch resp.Status {
	case directory.PlanServed, directory.PlanShed, directory.PlanExpired, directory.PlanDraining:
		return resp.Status
	}
	return "rejected"
}

// outcomeOf maps a response to its metric outcome label.
func outcomeOf(resp directory.PlanResponse) string {
	switch resp.Status {
	case directory.PlanServed, directory.PlanShed, directory.PlanExpired, directory.PlanDraining:
		return resp.Status
	}
	return "rejected"
}

// maybeRefreshGen probes the directory generation at most once per
// GenInterval, riding an incoming request. The probe runs outside the
// admission lock so a slow directory never blocks admission; a
// genProbing flag keeps concurrent requests from stampeding the
// directory while one probe is out.
//
// A generation only names a table within one directory incarnation. A
// probe that reads lower than the last one means the directory
// restarted and is counting again from zero over whatever table it now
// holds, so every cached plan is keyed on a number the new incarnation
// will reach again: the cache is dropped before the lower value is
// adopted. (A restart that comes back at or above the old number is
// indistinguishable from an update by this counter alone.)
func (d *Daemon) maybeRefreshGen(now time.Time) {
	if d.gen == nil {
		return
	}
	d.mu.Lock()
	if d.genProbing || (!d.genChecked.IsZero() && now.Sub(d.genChecked) < d.cfg.GenInterval) {
		d.mu.Unlock()
		return
	}
	d.genProbing = true
	d.mu.Unlock()
	v, err := d.gen()
	d.mu.Lock()
	d.genProbing = false
	d.genChecked = d.cfg.Clock()
	if err == nil {
		if v < d.curGen {
			d.cache = newPlanCache(d.cfg.CacheCap)
		}
		d.curGen = v
	}
	d.mu.Unlock()
}

// worker pulls flights off the admission queue until shutdown, then
// drains whatever is still queued before exiting. Each worker plans
// every flight from its own pattern scratch.
func (d *Daemon) worker() {
	defer d.wg.Done()
	sc := newPatternScratch(d.comm.N())
	for {
		select {
		case fl := <-d.tasks:
			d.work(fl, sc)
		case <-d.quit:
			for {
				select {
				case fl := <-d.tasks:
					d.work(fl, sc)
				default:
					return
				}
			}
		}
	}
}

// work resolves one flight: CoDel-style expiry if the leader's
// remaining deadline cannot cover the going p95 planning cost,
// otherwise a real planning pass, its matrix built in the worker's
// scratch, whose result is cached (HealthOK only) and handed to every
// waiter.
func (d *Daemon) work(fl *flight, sc patternScratch) {
	now := d.cfg.Clock()
	qwait := now.Sub(fl.enqueued)
	d.tel.queueWait(qwait)
	obs.SliceSpan(fl.ctx, "serve", "queue_wait", fl.enqueued, now, "")
	d.mu.Lock()
	depth := len(d.tasks)
	est := d.est.p95()
	remaining := fl.deadline.Sub(now)
	if remaining <= 0 || (est > 0 && remaining < est) {
		delete(d.flights, fl.key)
		ra := d.retryAfterLocked()
		d.mu.Unlock()
		d.tel.queueDepth(depth)
		obs.Mark(fl.ctx, "serve", "codel_expired", "")
		fl.complete(directory.PlanResponse{Status: directory.PlanExpired,
			RetryAfterMS: int64(ra / time.Millisecond)})
		return
	}
	d.inFlight++
	flight := d.inFlight
	d.mu.Unlock()
	d.tel.queueDepth(depth)
	d.tel.inFlight(flight)

	ctx, psp := obs.StartSpan(fl.ctx, "serve", "plan")
	// The matrix first exists here, outside d.mu: a hit, a follower and
	// an expired flight never pay for the generator or the P×P table.
	// The communicator reads it only during the call.
	r, h, err := d.comm.AllToAllHealthCtx(ctx, fl.pat.build(sc))
	dur := d.cfg.Clock().Sub(now)
	psp.End()

	var resp directory.PlanResponse
	if err != nil {
		resp = directory.PlanResponse{Error: err.Error()}
	} else {
		steps := 0
		if r.Steps != nil {
			steps = len(r.Steps.Steps)
		}
		resp = directory.PlanResponse{
			OK:          true,
			Status:      directory.PlanServed,
			Health:      h.String(),
			Generation:  fl.key.gen,
			Algorithm:   r.Algorithm,
			TMax:        r.CompletionTime(),
			TLB:         r.LowerBound,
			Steps:       steps,
			QueueWaitMS: float64(qwait) / float64(time.Millisecond),
		}
	}
	d.mu.Lock()
	d.inFlight--
	flight = d.inFlight
	d.est.observe(dur)
	if err == nil {
		d.stats.Plans++
		// A plan keyed on a generation the daemon has since left is
		// unreachable after a move forward, and after a move back it is
		// exactly the entry maybeRefreshGen just dropped.
		if h == comm.HealthOK && fl.key.gen == d.curGen {
			d.cache.put(fl.key, resp)
		}
	}
	delete(d.flights, fl.key)
	d.mu.Unlock()
	d.tel.inFlight(flight)
	fl.complete(resp)
}

// Shutdown drains the daemon: no new admissions, workers finish the
// queued backlog, and anything still queued when the drain timeout
// expires is force-answered with an explicit draining response — no
// request is ever silently dropped. Returns the number of requests
// force-answered. Safe to call more than once; later calls also wait
// for the drain to finish.
//
//hetvet:ignore tracectx drain is process teardown, not request work; no trace exists to thread
func (d *Daemon) Shutdown() int {
	if d == nil {
		return 0
	}
	d.mu.Lock()
	first := !d.draining
	d.draining = true
	d.mu.Unlock()
	if first {
		close(d.quit)
	}
	done := make(chan struct{})
	go func() {
		d.wg.Wait()
		close(done)
	}()
	forced := 0
	tm := time.NewTimer(d.cfg.DrainTimeout)
	defer tm.Stop()
	select {
	case <-done:
	case <-tm.C:
		ra := int64(d.cfg.MaxRetryAfter / time.Millisecond)
	drain:
		for {
			select {
			case fl := <-d.tasks:
				d.mu.Lock()
				delete(d.flights, fl.key)
				d.mu.Unlock()
				fl.complete(directory.PlanResponse{Status: directory.PlanDraining,
					RetryAfterMS: ra})
				forced++
			default:
				break drain
			}
		}
		<-done
	}
	return forced
}

// Draining reports whether Shutdown has begun.
func (d *Daemon) Draining() bool {
	if d == nil {
		return true
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.draining
}

// Health reports the communicator's current fallback-ladder rung.
// Individual responses carry the rung that served them; this is the
// daemon-wide view for health endpoints and logs.
func (d *Daemon) Health() comm.Health {
	if d == nil {
		return comm.HealthDegraded
	}
	return d.comm.Health()
}

// Snapshot returns the daemon's counters and queue state.
func (d *Daemon) Snapshot() directory.ServeStats {
	if d == nil {
		return directory.ServeStats{Draining: true}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	st := d.stats
	st.QueueDepth = len(d.tasks)
	st.InFlight = d.inFlight
	st.Draining = d.draining
	return st
}

// StatsResponse renders the counters as a serve_stats protocol
// response.
func (d *Daemon) StatsResponse() directory.PlanResponse {
	if d == nil {
		return directory.PlanResponse{Status: directory.PlanDraining, Error: "serve: nil daemon"}
	}
	st := d.Snapshot()
	return directory.PlanResponse{OK: true, Health: d.Health().String(), Stats: &st}
}
