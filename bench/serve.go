package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"hetsched/internal/comm"
	"hetsched/internal/directory"
	"hetsched/internal/model"
	"hetsched/internal/netmodel"
	"hetsched/internal/sched"
	"hetsched/internal/serve"
)

// config is what a workload needs to know about the run it is part of.
// The timed run uses min(2, nproc) clients and no recorder; the traced
// run uses one client, one worker and a recorder, so that every seam
// span lies inside exactly one root span.
type config struct {
	seed      int64
	clients   int
	rec       *recorder // nil: seams are not even installed
	inProcess bool      // traced run only: call Daemon.Plan directly instead of crossing the wire
}

// tally is one client's count of outcomes; clients never share one.
type tally struct {
	attempted, failed int
	firstFailure      string

	plans     int     // responses that were neither cached nor coalesced
	ratioSum  float64 // Σ t_max/t_lb over those
	hits      int
	coalesced int
	refused   int // answered, but not served: shed, expired, draining, rejected
	nonfresh  int // served from the stale or degraded rung
	queueWait float64
}

func (t *tally) fail(format string, args ...any) {
	t.failed++
	if t.firstFailure == "" {
		t.firstFailure = fmt.Sprintf(format, args...)
	}
}

// warmupErr turns a warm-up that did not go cleanly into a set-up error.
func (t tally) warmupErr() error {
	if t.failed == 0 {
		return nil
	}
	return fmt.Errorf("warm-up: %d of %d failed: %s", t.failed, t.attempted, t.firstFailure)
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	if t.firstFailure == "" {
		t.firstFailure = o.firstFailure
	}
	t.plans += o.plans
	t.ratioSum += o.ratioSum
	t.hits += o.hits
	t.coalesced += o.coalesced
	t.refused += o.refused
	t.nonfresh += o.nonfresh
	t.queueWait += o.queueWait
}

// serveStack is hetpland as its main builds it, in this process: the
// table or directory, the communicator, the daemon, its TCP front, and
// one dialed client per load-generating goroutine.
type serveStack struct {
	store   *directory.Store
	dirSrv  *directory.Server
	rc      *directory.ResilientClient
	feeder  *directory.Feeder
	daemon  *serve.Daemon
	srv     *serve.Server
	clients []*serve.Client
}

// newServeStack brings the stack up and dials the clients. live selects
// hetpland's -dir mode against an in-process directory server (strict
// source, generation probes every -gen-interval 1ms); otherwise the
// table is static, as with -random.
func newServeStack(cfg config, table *netmodel.Perf, live bool) (*serveStack, error) {
	s := &serveStack{}
	ok := false
	defer func() {
		if !ok {
			s.close()
		}
	}()
	source := comm.StaticSource(table)
	var gen serve.GenFunc
	if live {
		var err error
		if s.store, err = directory.NewStore(table, nil); err != nil {
			return nil, err
		}
		s.dirSrv = directory.NewServer(s.store)
		addr, err := s.dirSrv.Listen("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		s.rc = directory.NewResilientClient(addr, directory.ResilientConfig{})
		s.feeder = directory.NewFeeder(s.store, newRNG(cfg.seed, streamDrift, 0), netmodel.DefaultDrift())
		source, gen = s.rc.Source(true), s.rc.Version
	}
	ccfg := comm.Config{}
	if cfg.rec != nil {
		ccfg.Scheduler = tracedScheduler{rec: cfg.rec, inner: sched.NewOpenShop()}
		if live {
			source, gen = tracedSource(cfg.rec, source), tracedGen(cfg.rec, gen)
		}
	}
	c, err := comm.New(table.N(), source, ccfg)
	if err != nil {
		return nil, err
	}
	s.daemon, err = serve.NewDaemon(c, gen, serve.Config{Workers: cfg.clients, GenInterval: time.Millisecond})
	if err != nil {
		return nil, err
	}
	s.srv = serve.NewServer(s.daemon, serve.ServerConfig{})
	addr, err := s.srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	for i := 0; i < cfg.clients; i++ {
		cl, err := serve.Dial(context.Background(), addr, 0)
		if err != nil {
			return nil, err
		}
		s.clients = append(s.clients, cl)
	}
	ok = true
	return s, nil
}

func (s *serveStack) close() {
	for _, cl := range s.clients {
		cl.Close()
	}
	if s.srv != nil {
		s.srv.Close()
	} else if s.daemon != nil {
		s.daemon.Shutdown()
	}
	if s.rc != nil {
		s.rc.Close()
	}
	if s.dirSrv != nil {
		s.dirSrv.Close()
	}
}

// gated is a served response held back for the correctness gate.
type gated struct {
	key  int64 // pattern seed, or working-set index
	resp directory.PlanResponse
}

// gateEvery is how often the open-ended workloads hold a response back.
const gateEvery = 64

// serveBase is what the three serve workloads share: the stack, the
// per-client tallies, and the one way a request is issued and judged.
type serveBase struct {
	cfg     config
	table   *netmodel.Perf
	live    bool
	stack   *serveStack
	tallies []tally
	pending [][]gated // per client, drained by check between rounds
	base    directory.ServeStats
	// Plans produced before the timed part still count toward schedule
	// quality: serve-hot produces all of its plans while filling the cache.
	warmPlans    int
	warmRatioSum float64
	captured     []wirePair // traced run: the first requests with their answers, for the codec probes
}

func (b *serveBase) clients() int { return b.cfg.clients }

// shared lets the traced run reach the shared part of any serve workload.
func (b *serveBase) shared() *serveBase { return b }

func (b *serveBase) bringUp() error {
	var err error
	b.tallies, b.warmPlans, b.warmRatioSum = nil, 0, 0
	b.stack, err = newServeStack(b.cfg, b.table, b.live)
	return err
}

func (b *serveBase) teardown() {
	if b.stack != nil {
		b.stack.close()
		b.stack = nil
	}
}

// startTimed forgets the warm-up: tallies and daemon counters from here
// on describe timed operations only.
func (b *serveBase) startTimed() {
	warm := b.total()
	b.warmPlans += warm.plans
	b.warmRatioSum += warm.ratioSum
	b.tallies = make([]tally, b.cfg.clients)
	b.pending = make([][]gated, b.cfg.clients)
	b.captured = nil
	b.base = b.stack.daemon.Snapshot()
}

func (b *serveBase) total() tally {
	var t tally
	for _, c := range b.tallies {
		t.add(c)
	}
	return t
}

// quality is the mean t_max/t_lb over every plan the stack produced.
func (b *serveBase) quality() float64 {
	t := b.total()
	return (b.warmRatioSum + t.ratioSum) / float64(b.warmPlans+t.plans)
}

// daemonDelta is the daemon's own count since startTimed.
func (b *serveBase) daemonDelta() directory.ServeStats {
	now := b.stack.daemon.Snapshot()
	now.Plans -= b.base.Plans
	now.CacheHits -= b.base.CacheHits
	now.Coalesced -= b.base.Coalesced
	now.Shed -= b.base.Shed
	now.Expired -= b.base.Expired
	now.Served -= b.base.Served
	return now
}

// call issues one request, over the wire or — for the traced run's
// in-process pass — straight into the daemon, under a root span of the
// given name.
func (b *serveBase) call(client int, req directory.PlanRequest, name string) (directory.PlanResponse, time.Duration, error) {
	start := time.Now()
	var (
		resp directory.PlanResponse
		err  error
	)
	if b.cfg.inProcess {
		resp = b.stack.daemon.Plan(context.Background(), req)
	} else {
		resp, err = b.stack.clients[client].Plan(context.Background(), req)
	}
	end := time.Now()
	b.cfg.rec.add(name, start, end, outcome(resp, err))
	return resp, end.Sub(start), err
}

// opRoot names the root span of a workload operation.
func opRoot(cfg config) string {
	if cfg.inProcess {
		return "serve.plan"
	}
	return "serve.rtt"
}

func outcome(resp directory.PlanResponse, err error) string {
	switch {
	case err != nil:
		return "error"
	case resp.Status != directory.PlanServed:
		return "refused"
	case resp.Cached:
		return "hit"
	case resp.Coalesced:
		return "coalesced"
	}
	return "miss"
}

// do is one timed operation: issue, judge, count. An operation fails on
// a transport error or on any answer other than a served plan.
func (b *serveBase) do(client int, req directory.PlanRequest, key int64, hold bool) time.Duration {
	resp, lat, err := b.call(client, req, opRoot(b.cfg))
	if b.cfg.rec != nil && len(b.captured) < probeInputs {
		b.captured = append(b.captured, wirePair{req: req, resp: resp})
	}
	t := &b.tallies[client]
	t.attempted++
	switch {
	case err != nil:
		t.fail("transport: %v", err)
	case resp.Status != directory.PlanServed:
		t.refused++
		t.fail("not served: status %q error %q", resp.Status, resp.Error)
	default:
		switch {
		case resp.Cached:
			t.hits++
		case resp.Coalesced:
			t.coalesced++
		default:
			t.plans++
			t.ratioSum += resp.TMax / resp.TLB
		}
		if resp.Health != comm.HealthOK.String() {
			t.nonfresh++
		}
		t.queueWait += resp.QueueWaitMS
		if hold {
			b.pending[client] = append(b.pending[client], gated{key: key, resp: resp})
		}
	}
	return lat
}

// refPlan is what the library plans for one pattern on one table: the
// fields a served response must reproduce exactly.
type refPlan struct {
	algorithm string
	steps     int
	tMax, tLB float64
}

// libraryPlan computes the reference with a communicator of the gate's
// own, over a static copy of the table.
func libraryPlan(table *netmodel.Perf, sizes *model.Sizes) (refPlan, error) {
	ref, err := comm.New(table.N(), comm.StaticSource(table), comm.Config{})
	if err != nil {
		return refPlan{}, err
	}
	r, _, err := ref.AllToAllHealthCtx(context.Background(), sizes)
	if err != nil {
		return refPlan{}, err
	}
	p := refPlan{algorithm: r.Algorithm, tMax: r.CompletionTime(), tLB: r.LowerBound}
	if r.Steps != nil {
		p.steps = len(r.Steps.Steps)
	}
	return p, nil
}

// samePlan is the correctness gate: a served plan, however it was
// produced, must be the plan the library computes.
func samePlan(resp directory.PlanResponse, want refPlan) error {
	got := refPlan{algorithm: resp.Algorithm, steps: resp.Steps, tMax: resp.TMax, tLB: resp.TLB}
	if got != want {
		return fmt.Errorf("served %+v, library plans %+v", got, want)
	}
	return nil
}

// drainGate checks every held-back response against the library.
func (b *serveBase) drainGate(planFor func(key int64) (refPlan, error)) {
	for c := range b.pending {
		for _, g := range b.pending[c] {
			want, err := planFor(g.key)
			if err == nil {
				err = samePlan(g.resp, want)
			}
			if err != nil {
				b.tallies[c].fail("gate: %v", err)
			}
		}
		b.pending[c] = b.pending[c][:0]
	}
}

// ---- serve-miss ----

// missWL sends compact kind=random specs with never-repeated seeds
// against a static table: the cache and coalescer are bypassed and the
// scheduler does the work.
type missWL struct {
	serveBase
	seeds []*missSeeds
}

func newMissWL(cfg config) *missWL {
	return &missWL{serveBase: serveBase{cfg: cfg, table: gustoTable(cfg.seed, serveP)}}
}

func (w *missWL) inputs() string {
	ih := newInputHash()
	ih.perf(w.table)
	for c := 0; c < w.cfg.clients; c++ {
		g := newMissSeeds(w.cfg.seed, streamTimed, c, w.cfg.clients)
		for i := 0; i < hashedDraws; i++ {
			ih.u64(uint64(g.draw()))
		}
	}
	return ih.sum()
}

const missWarmupPerClient = 320

func (w *missWL) setup() error {
	if err := w.bringUp(); err != nil {
		return err
	}
	w.startTimed()
	warm := newMeter(w.cfg.clients)
	warm.segment(func(c int) {
		g := newMissSeeds(w.cfg.seed, streamWarmup, c, w.cfg.clients)
		for i := 0; i < missWarmupPerClient; i++ {
			seed := g.draw()
			w.do(c, randomSpec(seed), seed, false)
		}
	})
	if err := w.total().warmupErr(); err != nil {
		return err
	}
	w.seeds = make([]*missSeeds, w.cfg.clients)
	for c := range w.seeds {
		w.seeds[c] = newMissSeeds(w.cfg.seed, streamTimed, c, w.cfg.clients)
	}
	w.startTimed()
	return nil
}

func (w *missWL) round(m *meter, done func() bool) error {
	m.loop(done, func(c int) time.Duration {
		seed := w.seeds[c].draw()
		return w.do(c, randomSpec(seed), seed, w.tallies[c].attempted%gateEvery == 0)
	})
	return nil
}

func (w *missWL) check() {
	w.drainGate(func(seed int64) (refPlan, error) {
		return libraryPlan(w.table, randomPattern(serveP, patternSize, seed))
	})
}

func (w *missWL) finish() error {
	d := w.daemonDelta()
	if d.CacheHits != 0 || d.Coalesced != 0 {
		return fmt.Errorf("serve-miss must bypass the cache: %d hits, %d coalesced", d.CacheHits, d.Coalesced)
	}
	return nil
}

// ---- serve-hot ----

// hotWL sends explicit 50×50 size tables drawn Zipf from a working set
// that fits the cache: after warm-up every request is a hit, so request
// parsing, hashing, the cache and the wire do the work.
type hotWL struct {
	serveBase
	tables [][][]int64
	reqs   []directory.PlanRequest
	draws  []func() int
	refs   map[int64]refPlan // the gate's reference plans, by table
}

func newHotWL(cfg config) *hotWL {
	w := &hotWL{serveBase: serveBase{cfg: cfg, table: gustoTable(cfg.seed, serveP)},
		tables: hotTables(cfg.seed), refs: map[int64]refPlan{}}
	for _, rows := range w.tables {
		w.reqs = append(w.reqs, directory.PlanRequest{Sizes: rows, DeadlineMS: deadlineMS})
	}
	return w
}

func (w *hotWL) inputs() string {
	ih := newInputHash()
	ih.perf(w.table)
	for _, rows := range w.tables {
		ih.sizes(sizesOf(rows))
	}
	for c := 0; c < w.cfg.clients; c++ {
		draw := zipfDraws(w.cfg.seed, streamTimed, c)
		for i := 0; i < hashedDraws; i++ {
			ih.u64(uint64(draw()))
		}
	}
	return ih.sum()
}

const hotWarmupPerClient = 1000

func (w *hotWL) setup() error {
	if err := w.bringUp(); err != nil {
		return err
	}
	w.startTimed()
	// Fill the cache: every table once, split between the clients. These
	// are the only plans the workload ever produces.
	warm := newMeter(w.cfg.clients)
	warm.segment(func(c int) {
		for k := c; k < workingSet; k += w.cfg.clients {
			w.do(c, w.reqs[k], int64(k), false)
		}
	})
	warm.segment(func(c int) {
		draw := zipfDraws(w.cfg.seed, streamWarmup, c)
		for i := 0; i < hotWarmupPerClient; i++ {
			k := draw()
			w.do(c, w.reqs[k], int64(k), false)
		}
	})
	if err := w.total().warmupErr(); err != nil {
		return err
	}
	w.draws = make([]func() int, w.cfg.clients)
	for c := range w.draws {
		w.draws[c] = zipfDraws(w.cfg.seed, streamTimed, c)
	}
	w.startTimed()
	return nil
}

func (w *hotWL) round(m *meter, done func() bool) error {
	m.loop(done, func(c int) time.Duration {
		k := w.draws[c]()
		return w.do(c, w.reqs[k], int64(k), w.tallies[c].attempted%gateEvery == 0)
	})
	return nil
}

func (w *hotWL) check() {
	// 64 tables on a static network: each reference is planned once.
	w.drainGate(func(k int64) (refPlan, error) {
		if want, ok := w.refs[k]; ok {
			return want, nil
		}
		want, err := libraryPlan(w.table, sizesOf(w.tables[k]))
		if err == nil {
			w.refs[k] = want
		}
		return want, err
	})
}

func (w *hotWL) finish() error {
	t := w.total()
	if ratio := float64(t.hits) / float64(t.attempted); ratio < 0.999 {
		return fmt.Errorf("serve-hot must be served from the cache: hit ratio %.4f", ratio)
	}
	return nil
}

// ---- serve-live ----

// liveWL is the paper's repeated exchange under drift, served: the same
// 64 patterns over and over against a live directory whose table moves
// between epochs. An epoch is: tick the directory, fence until the
// daemon has seen the new generation, then 512 requests — every pattern
// eight times, split between the clients — of which exactly 64 are
// replans. Epochs are driven by operation count, never by the clock.
type liveWL struct {
	serveBase
	reqs   []directory.PlanRequest
	seeds  []int64
	fence  *missSeeds
	rngs   []*rand.Rand
	orders [][]int
	epochs int
	// fencePlans counts the plans fences cost since the timed part began;
	// they are the daemon's, not the workload's.
	fencePlans int
	mis        int // epochs whose plan count was not exactly workingSet
	misNote    string
}

const (
	epochOps         = 512
	liveWarmupEpochs = 3
	fenceSettle      = 2 * time.Millisecond // > GenInterval, so the fence's probe is due
)

func newLiveWL(cfg config) *liveWL {
	w := &liveWL{serveBase: serveBase{cfg: cfg, table: gustoTable(cfg.seed, serveP), live: true},
		seeds: livePatternSeeds(cfg.seed)}
	for _, s := range w.seeds {
		w.reqs = append(w.reqs, randomSpec(s))
	}
	return w
}

func (w *liveWL) inputs() string {
	ih := newInputHash()
	ih.perf(w.table)
	for _, s := range w.seeds {
		ih.u64(uint64(s))
	}
	var buf []int
	for c := 0; c < w.cfg.clients; c++ {
		rng := newRNG(w.cfg.seed, streamTimed, c)
		for e := 0; e < 4; e++ {
			buf = epochOrder(rng, epochOps/workingSet/w.cfg.clients, buf)
			for _, k := range buf {
				ih.u64(uint64(k))
			}
		}
	}
	return ih.sum()
}

func (w *liveWL) setup() error {
	if err := w.bringUp(); err != nil {
		return err
	}
	w.startTimed()
	w.fence = newMissSeeds(w.cfg.seed, streamWarmup, 0, 1)
	w.useStream(streamWarmup)
	warm := newMeter(w.cfg.clients)
	for e := 0; e < liveWarmupEpochs; e++ {
		if err := w.epoch(warm); err != nil {
			return err
		}
	}
	if err := w.total().warmupErr(); err != nil {
		return err
	}
	if w.mis > 0 {
		return fmt.Errorf("warm-up: %s", w.misNote)
	}
	w.useStream(streamTimed)
	w.epochs, w.fencePlans = 0, 0
	w.startTimed()
	return nil
}

func (w *liveWL) useStream(stream int) {
	w.rngs = make([]*rand.Rand, w.cfg.clients)
	w.orders = make([][]int, w.cfg.clients)
	for c := range w.rngs {
		w.rngs[c] = newRNG(w.cfg.seed, stream, c)
	}
}

func (w *liveWL) round(m *meter, done func() bool) error {
	for !done() {
		if err := w.epoch(m); err != nil {
			return err
		}
	}
	return nil
}

// epoch runs one epoch; only the 512 requests are on the meter.
func (w *liveWL) epoch(m *meter) error {
	before := w.stack.daemon.Snapshot().Plans
	start := time.Now()
	version, err := w.stack.feeder.Tick()
	if err != nil {
		return err
	}
	w.cfg.rec.add("directory.update", start, time.Now(), "")
	fences, err := w.fenceUntil(version)
	if err != nil {
		return err
	}
	w.fencePlans += fences
	for c := range w.orders {
		w.orders[c] = epochOrder(w.rngs[c], epochOps/workingSet/w.cfg.clients, w.orders[c])
	}
	// One response per epoch goes to the gate; which one moves with the
	// epoch so hits, coalesced answers and replans all get checked.
	held := (w.epochs * 37) % len(w.orders[0])
	w.epochs++
	m.segment(func(c int) {
		for i, k := range w.orders[c] {
			m.observe(c, w.do(c, w.reqs[k], int64(k), c == 0 && i == held))
		}
	})
	if plans := int(w.stack.daemon.Snapshot().Plans-before) - fences; plans != workingSet {
		w.mis++
		w.misNote = fmt.Sprintf("epoch %d produced %d plans, want %d", w.epochs, plans, workingSet)
	}
	// The gate: the store has not moved since the tick, so its snapshot
	// is the table at the generation the epoch was served under.
	table, ver := w.stack.store.Snapshot()
	for _, g := range w.pending[0] {
		want, err := libraryPlan(table, randomPattern(serveP, patternSize, w.seeds[g.key]))
		if err == nil && g.resp.Generation != ver {
			err = fmt.Errorf("served generation %d, directory is at %d", g.resp.Generation, ver)
		}
		if err == nil {
			err = samePlan(g.resp, want)
		}
		if err != nil {
			w.tallies[0].fail("gate: %v", err)
		}
	}
	w.pending[0] = w.pending[0][:0]
	return nil
}

// fenceUntil sends untimed requests for patterns outside the working
// set until one is served at the directory's new generation: from then
// on the daemon keys its cache on that generation. It returns how many
// plans the fences cost, which the epoch's plan count excludes.
func (w *liveWL) fenceUntil(version uint64) (int, error) {
	for fences := 1; fences <= 100; fences++ {
		time.Sleep(fenceSettle)
		resp, _, err := w.call(0, randomSpec(w.fence.draw()), "serve.fence")
		if err != nil {
			return fences, fmt.Errorf("fence: %w", err)
		}
		if resp.Status != directory.PlanServed {
			return fences, fmt.Errorf("fence not served: status %q error %q", resp.Status, resp.Error)
		}
		if resp.Generation == version {
			return fences, nil
		}
	}
	return 0, fmt.Errorf("fence: daemon never reached generation %d", version)
}

func (w *liveWL) check() {}

func (w *liveWL) finish() error {
	if w.mis > 0 {
		return fmt.Errorf("serve-live: %d epochs off the plan count: %s", w.mis, w.misNote)
	}
	if d := w.daemonDelta(); d.Shed != 0 || d.Expired != 0 {
		return fmt.Errorf("serve-live: %d shed, %d expired", d.Shed, d.Expired)
	}
	return nil
}
