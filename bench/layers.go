package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"

	"hetsched/internal/calib"
	"hetsched/internal/comm"
	"hetsched/internal/directory"
	"hetsched/internal/exec"
	"hetsched/internal/model"
	"hetsched/internal/netmodel"
	"hetsched/internal/sched"
)

// perLayer lists what a traced run reports, on every workload; a layer
// a workload does not exercise reads 0. Layer = package name.
var perLayer = []metricDef{
	{"directory.snapshot_us", "us"},
	{"directory.snapshots_per_op", "1"},
	{"directory.gen_probe_us", "us"},
	{"directory.gen_probes_per_op", "1"},
	{"directory.update_us", "us"},
	{"directory.parse_req_us", "us"},
	{"directory.encode_req_us", "us"},
	{"directory.parse_resp_us", "us"},
	{"directory.encode_resp_us", "us"},
	{"directory.req_bytes", "B"},
	{"serve.rtt_us", "us"},
	{"serve.plan_us", "us"},
	{"serve.transport_us", "us"},
	{"serve.self_us", "us"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.coalesced_ratio", "ratio"},
	{"serve.plans_per_op", "1"},
	{"serve.queue_wait_us", "us"},
	{"serve.refused_ratio", "ratio"},
	{"comm.plan_us", "us"},
	{"comm.self_us", "us"},
	{"comm.warm_replan_us", "us"},
	{"comm.warm_over_cold", "ratio"},
	{"comm.nonfresh_ratio", "ratio"},
	{"sched.schedule_us", "us"},
	{"sched.schedules_per_op", "1"},
	{"model.build_us", "us"},
	{"timing.evaluate_us", "us"},
	{"exec.run_us", "us"},
	{"exec.plan_us", "us"},
	{"exec.transport_new_us", "us"},
	{"exec.payload_us", "us"},
	{"exec.dials_per_op", "1"},
	{"exec.wire_bytes_over_payload", "ratio"},
	{"exec.goodput_mb_per_s", "MB/s"},
	{"exec.retries_per_op", "1"},
	{"exec.wall_over_modeled", "ratio"},
	{"exec.tcp_run_us", "us"},
	{"exec.tcp_over_mem", "ratio"},
	{"calib.observe_batch_us", "us"},
	{"calib.apply_us", "us"},
	{"go.gc_cpu_ratio", "ratio"},
	{"go.heap_live_mb", "MiB"},
	{"trace.unattributed_us", "us"},
	{"trace.unattributed_ratio", "ratio"},
	{"trace.overhead_ratio", "ratio"},
}

// Fixed operation counts of the traced run, per workload: the run is
// serial, so counts — not seconds — make two traced runs comparable.
var tracedOps = map[string]int{
	"serve-miss":   2000,
	"serve-hot":    5000,
	"serve-live":   12 * epochOps,
	"exchange-mem": 200,
}

const (
	passChunks   = 4   // a pass reports the rate of its fastest quarter, as the timed run reports its best round
	probeInputs  = 200 // inputs the direct layer probes replay
	tcpExchanges = 40  // 56 connections each: stays far below the kernel's TIME_WAIT table
)

// pass is one serial run of a workload: one client, one worker.
type pass struct {
	w        workload
	spans    []span
	self     []time.Duration
	opsPerS  float64
	gcRatio  float64
	heapLive float64
}

func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// runPass sets the workload up and runs its fixed operation count. The
// caller tears the workload down once it has read its counters.
func runPass(name string, cfg config) (*pass, error) {
	w, err := newWorkload(name, cfg)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	if err := w.setup(); err != nil {
		w.teardown()
		return nil, fmt.Errorf("%s set-up: %w", name, err)
	}
	cfg.rec.reset() // warm-up spans are not part of the trace
	m := newMeter(w.clients())
	p := &pass{w: w}
	gc0, cpu0 := gcCPUSeconds(), processCPU()
	for chunk := 1; chunk <= passChunks; chunk++ {
		ops, wall := m.ops.Load(), m.wall
		if err := w.round(m, m.countUp(tracedOps[name]*chunk/passChunks)); err != nil {
			w.teardown()
			return nil, err
		}
		if rate := float64(m.ops.Load()-ops) / (m.wall - wall).Seconds(); rate > p.opsPerS {
			p.opsPerS = rate
		}
	}
	gc1, cpu1 := gcCPUSeconds(), processCPU()
	w.check()
	if cpu1 > cpu0 {
		p.gcRatio = (gc1 - gc0) / (cpu1 - cpu0).Seconds()
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.heapLive = float64(ms.HeapAlloc) / (1 << 20)
	p.spans = cfg.rec.resolve()
	p.self = selfTimes(p.spans)
	return p, nil
}

// byName summarizes the spans of one name.
type byName struct {
	n        int
	total    time.Duration
	selfTime time.Duration
}

func (b byName) mean() float64 {
	if b.n == 0 {
		return 0
	}
	return us(b.total) / float64(b.n)
}

// summarize groups by name the spans that lie under roots of the given
// name — and, when outcome is set, of that outcome. Fences and directory
// ticks are roots of their own and so stay out of the operations' sums.
func (p *pass) summarize(root, outcome string) map[string]byName {
	keep := map[int]bool{}
	for _, s := range p.spans {
		if s.Parent < 0 && s.Name == root && (outcome == "" || s.Note == outcome) {
			keep[s.Req] = true
		}
	}
	out := map[string]byName{}
	for i, s := range p.spans {
		if !keep[s.Req] {
			continue
		}
		b := out[s.Name]
		b.n++
		b.total += s.dur()
		b.selfTime += p.self[i]
		out[s.Name] = b
	}
	return out
}

// tracedRun produces the per-layer metrics of one workload and writes
// its Chrome trace.
func tracedRun(name string, seed int64, dir string, out io.Writer) (result, error) {
	if _, ok := tracedOps[name]; !ok {
		return result{}, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return result{}, err
	}
	v := map[string]float64{}

	// Recorder off, then on: same serial configuration, so the ratio of
	// the two rates is what recording costs.
	off, err := runPass(name, config{seed: seed, clients: 1})
	if err != nil {
		return result{}, err
	}
	off.w.teardown()
	wire, err := runPass(name, config{seed: seed, clients: 1, rec: newRecorder()})
	if err != nil {
		return result{}, err
	}
	defer wire.w.teardown()
	v["trace.overhead_ratio"] = wire.opsPerS / off.opsPerS
	v["go.gc_cpu_ratio"] = wire.gcRatio
	v["go.heap_live_mb"] = wire.heapLive
	path := filepath.Join(dir, "trace-"+name+".json")
	if err := writeChromeTrace(path, wire.spans); err != nil {
		return result{}, err
	}
	fmt.Fprintf(out, "bench: %s traced: %d spans in %s (recorder off %.0f ops/s, on %.0f ops/s)\n",
		name, len(wire.spans), path, off.opsPerS, wire.opsPerS)

	t := wire.w.total()
	selfCheck := wire.w.finish()
	switch w := wire.w.(type) {
	case *exchangeWL:
		err = exchangeLayers(w, wire, seed, v, out)
	default:
		err = serveLayers(name, seed, wire, v, out)
	}
	if err != nil {
		return result{}, err
	}
	return newResult(t, selfCheck, perLayer, v), nil
}

// ---- serve workloads ----

// serveLayers fills the per-layer metrics of a serve workload from the
// wire pass, an in-process pass over the same request sequence, and the
// direct probes.
func serveLayers(name string, seed int64, wire *pass, v map[string]float64, out io.Writer) error {
	inproc, err := runPass(name, config{seed: seed, clients: 1, rec: newRecorder(), inProcess: true})
	if err != nil {
		return err
	}
	inproc.w.teardown()

	base := wire.w.(interface{ shared() *serveBase }).shared()
	t := base.total()
	ops := float64(t.attempted)
	d := base.daemonDelta()
	plans := float64(d.Plans)
	if live, ok := wire.w.(*liveWL); ok {
		plans -= float64(live.fencePlans)
	}
	v["serve.cache_hit_ratio"] = float64(t.hits) / ops
	v["serve.coalesced_ratio"] = float64(t.coalesced) / ops
	v["serve.refused_ratio"] = float64(t.refused) / ops
	v["serve.plans_per_op"] = plans / ops
	v["serve.queue_wait_us"] = t.queueWait * 1000 / ops
	v["comm.nonfresh_ratio"] = float64(t.nonfresh) / ops

	a, b := wire.summarize("serve.rtt", ""), inproc.summarize("serve.plan", "")
	rtt, plan := a["serve.rtt"], b["serve.plan"]
	v["serve.rtt_us"] = rtt.mean()
	v["serve.plan_us"] = plan.mean()
	v["directory.snapshot_us"] = a["directory.snapshot"].mean()
	v["directory.snapshots_per_op"] = float64(a["directory.snapshot"].n) / float64(rtt.n)
	v["directory.gen_probe_us"] = a["directory.gen_probe"].mean()
	v["directory.gen_probes_per_op"] = float64(a["directory.gen_probe"].n) / float64(rtt.n)
	v["directory.update_us"] = wire.summarize("directory.update", "")["directory.update"].mean()
	v["sched.schedule_us"] = a["sched.schedule"].mean()
	v["sched.schedules_per_op"] = float64(a["sched.schedule"].n) / float64(rtt.n)

	codec := codecProbe(base.captured, v)
	if err := planProbes(name, seed, v); err != nil {
		return err
	}
	// Transport is what crossing the wire adds: the round trip less the
	// in-process call, each net of its seam children — the children are
	// the large, noisy part (a directory snapshot is 2 ms) and are the
	// same work in both passes, so they must not enter the difference.
	// What the codec probes do not explain of it is the residual.
	rttSelf, planSelf := us(rtt.selfTime)/float64(rtt.n), us(plan.selfTime)/float64(plan.n)
	v["serve.transport_us"] = rttSelf - planSelf
	v["serve.self_us"] = planSelf - v["serve.plans_per_op"]*v["comm.self_us"]
	v["trace.unattributed_us"] = v["serve.transport_us"] - codec
	v["trace.unattributed_ratio"] = v["trace.unattributed_us"] / rtt.mean()

	// The split by outcome, for the attribution tables in README.md:
	// rtt = gen_probe + snapshot + schedule + comm_self + serve_self + codec + unattributed.
	fmt.Fprintf(out, "bench: %s attribution, µs per request:\n", name)
	fmt.Fprintf(out, "bench:   %-9s %6s %8s = %9s %9s %9s %9s %10s %7s %12s\n", "outcome", "n",
		"rtt", "gen_probe", "snapshot", "schedule", "comm_self", "serve_self", "codec", "unattributed")
	for _, o := range []string{"miss", "hit", "coalesced"} {
		ao, bo := wire.summarize("serve.rtt", o), inproc.summarize("serve.plan", o)
		r, p := ao["serve.rtt"], bo["serve.plan"]
		if r.n == 0 || p.n == 0 {
			continue
		}
		per := func(s byName) float64 { return us(s.total) / float64(r.n) }
		commSelf := 0.0
		if o == "miss" {
			commSelf = v["comm.self_us"]
		}
		self := us(p.selfTime) / float64(p.n)
		fmt.Fprintf(out, "bench:   %-9s %6d %8.1f = %9.1f %9.1f %9.1f %9.1f %10.1f %7.1f %12.1f\n", o, r.n, r.mean(),
			per(ao["directory.gen_probe"]), per(ao["directory.snapshot"]), per(ao["sched.schedule"]),
			commSelf, self-commSelf, codec, us(r.selfTime)/float64(r.n)-self-codec)
	}
	return nil
}

// timeIt returns the mean duration of fn over the inputs, in µs.
func timeIt(n int, fn func(i int)) float64 {
	if n == 0 {
		return 0
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return us(time.Since(start)) / float64(n)
}

// wirePair is one captured request with its response.
type wirePair struct {
	req  directory.PlanRequest
	resp directory.PlanResponse
}

// codecProbe times the four wire-codec calls of a request on captured
// request/response pairs and returns their sum.
func codecProbe(pairs []wirePair, v map[string]float64) float64 {
	reqLines := make([][]byte, len(pairs))
	respLines := make([][]byte, len(pairs))
	bytes := 0
	v["directory.encode_req_us"] = timeIt(len(pairs), func(i int) {
		req := pairs[i].req
		req.Op = directory.OpPlan
		reqLines[i], _ = directory.EncodePlanRequest(req)
	})
	v["directory.encode_resp_us"] = timeIt(len(pairs), func(i int) {
		respLines[i], _ = directory.EncodePlanResponse(pairs[i].resp)
	})
	v["directory.parse_req_us"] = timeIt(len(pairs), func(i int) {
		directory.ParsePlanRequest(reqLines[i])
	})
	v["directory.parse_resp_us"] = timeIt(len(pairs), func(i int) {
		directory.ParsePlanResponse(respLines[i])
	})
	for _, l := range reqLines {
		bytes += len(l)
	}
	if len(pairs) > 0 {
		v["directory.req_bytes"] = float64(bytes) / float64(len(pairs))
	}
	return v["directory.encode_req_us"] + v["directory.encode_resp_us"] +
		v["directory.parse_req_us"] + v["directory.parse_resp_us"]
}

// probeInput is one input of the direct planning probes.
type probeInput struct {
	sizes *model.Sizes
	key   int  // identity of the pattern, for the warm chain's per-pattern state
	tick  bool // advance the directory before this input
}

// probeNet is the network the planning probes plan against: the
// workload's static table, or a directory of their own for serve-live.
type probeNet struct {
	source comm.Source
	table  func() *netmodel.Perf
	tick   func() error
	close  func()
	live   bool
}

func planProbeInputs(name string, seed int64) []probeInput {
	var in []probeInput
	switch name {
	case "serve-miss":
		g := newMissSeeds(seed, streamTimed, 0, 1)
		for i := 0; i < probeInputs; i++ {
			in = append(in, probeInput{sizes: randomPattern(serveP, patternSize, g.draw())})
		}
	case "serve-hot":
		tables, draw := hotTables(seed), zipfDraws(seed, streamTimed, 0)
		for i := 0; i < probeInputs; i++ {
			k := draw()
			in = append(in, probeInput{sizes: sizesOf(tables[k]), key: k})
		}
	case "serve-live":
		// The misses of an epoch: every pattern once per generation.
		seeds := livePatternSeeds(seed)
		for i := 0; i < probeInputs; i++ {
			k := i % workingSet
			in = append(in, probeInput{sizes: randomPattern(serveP, patternSize, seeds[k]), key: k, tick: k == 0})
		}
	case "exchange-mem":
		g := newExchangeSizes(seed, streamTimed, 0)
		for i := 0; i < probeInputs; i++ {
			in = append(in, probeInput{sizes: g.draw()})
		}
	}
	return in
}

func newProbeNet(name string, seed int64) (*probeNet, error) {
	table := gustoTable(seed, serveP)
	if name == "exchange-mem" {
		table = loopbackTable(seed, exchangeP)
	}
	if name != "serve-live" {
		return &probeNet{source: comm.StaticSource(table), table: func() *netmodel.Perf { return table },
			tick: func() error { return nil }, close: func() {}}, nil
	}
	store, err := directory.NewStore(table, nil)
	if err != nil {
		return nil, err
	}
	srv := directory.NewServer(store)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	rc := directory.NewResilientClient(addr, directory.ResilientConfig{})
	feeder := directory.NewFeeder(store, newRNG(seed, streamDrift, 0), netmodel.DefaultDrift())
	return &probeNet{
		live:   true,
		source: rc.Source(true),
		table:  func() *netmodel.Perf { p, _ := store.Snapshot(); return p },
		tick:   func() error { _, err := feeder.Tick(); return err },
		close:  func() { rc.Close(); srv.Close() },
	}, nil
}

// planProbes calls into comm, model and timing directly, on the first
// inputs of the workload's own sequence: the cold plan the daemon runs
// today (with its snapshot and schedule children, so comm's self time
// falls out), the warm chain on the same (pattern, generation) sequence,
// the cost-matrix build, and a step-schedule evaluation.
func planProbes(name string, seed int64, v map[string]float64) error {
	inputs := planProbeInputs(name, seed)
	p := inputs[0].sizes.N()
	net, err := newProbeNet(name, seed)
	if err != nil {
		return err
	}
	defer net.close()
	rec := newRecorder()
	source := net.source
	if net.live {
		source = tracedSource(rec, source)
	}
	cold, err := comm.New(p, source, comm.Config{Scheduler: tracedScheduler{rec: rec, inner: sched.NewOpenShop()}})
	if err != nil {
		return err
	}
	// One warm communicator and scratch per pattern: the repeated-exchange
	// cache holds one pattern's schedule.
	type warmState struct {
		c  *comm.Communicator
		sc comm.PlanScratch
	}
	warm := map[int]*warmState{}
	var warmTotal, buildTotal, evalTotal time.Duration
	for _, in := range inputs {
		if in.tick {
			if err := net.tick(); err != nil {
				return err
			}
		}
		start := time.Now()
		if _, _, err := cold.AllToAllHealthCtx(context.Background(), in.sizes); err != nil {
			return err
		}
		rec.add("comm.plan", start, time.Now(), "")

		ws := warm[in.key]
		if ws == nil {
			ws = &warmState{}
			if ws.c, err = comm.New(p, net.source, comm.Config{}); err != nil {
				return err
			}
			warm[in.key] = ws
		}
		start = time.Now()
		if _, err := ws.c.AllToAllRepeatedScratch(in.sizes, &ws.sc); err != nil {
			return err
		}
		warmTotal += time.Since(start)

		table := net.table()
		start = time.Now()
		m, err := model.Build(table, in.sizes)
		buildTotal += time.Since(start)
		if err != nil {
			return err
		}
		steps, err := sched.Baseline{}.Schedule(m)
		if err != nil {
			return err
		}
		start = time.Now()
		if _, err := steps.Steps.Evaluate(m); err != nil {
			return err
		}
		evalTotal += time.Since(start)
	}
	spans := rec.resolve()
	self := selfTimes(spans)
	var planTotal, selfTotal time.Duration
	for i, s := range spans {
		if s.Name == "comm.plan" {
			planTotal += s.dur()
			selfTotal += self[i]
		}
	}
	n := float64(len(inputs))
	v["comm.plan_us"] = us(planTotal) / n
	v["comm.self_us"] = us(selfTotal) / n
	v["comm.warm_replan_us"] = us(warmTotal) / n
	v["comm.warm_over_cold"] = v["comm.warm_replan_us"] / v["comm.plan_us"]
	v["model.build_us"] = us(buildTotal) / n
	v["timing.evaluate_us"] = us(evalTotal) / n
	return nil
}

// ---- exchange-mem ----

// exchangeLayers fills the per-layer metrics of exchange-mem: the seam
// counters of the traced pass, then direct probes of each part of an
// operation — transport construction, planning, Executor.Run on a
// pre-planned result over memory and over TCP — and the calibrator fed
// with the samples the executor emitted.
func exchangeLayers(w *exchangeWL, wire *pass, seed int64, v map[string]float64, out io.Writer) error {
	x := &w.execTR
	ops := float64(w.tally.attempted)
	a := wire.summarize("exec.exchange", "")
	root := a["exec.exchange"]
	v["sched.schedule_us"] = a["sched.schedule"].mean()
	v["sched.schedules_per_op"] = float64(a["sched.schedule"].n) / ops
	v["exec.transport_new_us"] = a["exec.transport_new"].mean()
	v["exec.payload_us"] = us(time.Duration(x.ctr.payloadNS.Load())) / ops
	v["exec.dials_per_op"] = float64(x.ctr.dials.Load()) / ops
	v["exec.wire_bytes_over_payload"] = float64(x.ctr.wireBytes.Load()) / float64(x.payloadBytes)
	v["exec.goodput_mb_per_s"] = x.goodputSum / ops
	v["exec.retries_per_op"] = float64(x.retries) / ops
	v["exec.wall_over_modeled"] = x.ratioSum / ops

	if err := planProbes("exchange-mem", seed, v); err != nil {
		return err
	}
	v["exec.plan_us"] = v["comm.plan_us"]

	// Executor.Run alone, on results planned beforehand.
	inputs := planProbeInputs("exchange-mem", seed)
	planner, err := comm.New(exchangeP, comm.StaticSource(w.table), comm.Config{})
	if err != nil {
		return err
	}
	type planned struct {
		res   *sched.Result
		m     *model.Matrix
		sizes *model.Sizes
	}
	plans := make([]planned, len(inputs))
	for i, in := range inputs {
		if plans[i].res, err = planner.AllToAll(in.sizes); err != nil {
			return err
		}
		if plans[i].m, err = model.Build(w.table, in.sizes); err != nil {
			return err
		}
		plans[i].sizes = in.sizes
	}
	run := func(tr exec.Transport, p planned) (time.Duration, error) {
		ex, err := exec.New(tr, exec.Config{})
		if err != nil {
			return 0, err
		}
		start := time.Now()
		rep, err := ex.Run(context.Background(), p.res, p.m, p.sizes)
		d := time.Since(start)
		if err != nil {
			return 0, err
		}
		if rep.DeliveredBytes != rep.TotalBytes || rep.Rounds != 1 {
			return 0, fmt.Errorf("probe exchange delivered %d of %d bytes in %d rounds", rep.DeliveredBytes, rep.TotalBytes, rep.Rounds)
		}
		return d, nil
	}
	var memTotal, tcpTotal time.Duration
	for _, p := range plans {
		tr, err := exec.NewMem(exchangeP)
		if err != nil {
			return err
		}
		d, err := run(tr, p)
		if err != nil {
			return err
		}
		memTotal += d
	}
	for _, p := range plans[:tcpExchanges] {
		tr, err := exec.NewTCP(exchangeP)
		if err != nil {
			return err
		}
		d, err := run(tr, p)
		tr.Close()
		if err != nil {
			return err
		}
		tcpTotal += d
	}
	v["exec.run_us"] = us(memTotal) / float64(len(plans))
	v["exec.tcp_run_us"] = us(tcpTotal) / tcpExchanges
	v["exec.tcp_over_mem"] = v["exec.tcp_run_us"] / v["exec.run_us"]

	// The calibrator, fed what the executor measured during the pass.
	cal, err := calib.New(w.table, calib.Config{})
	if err != nil {
		return err
	}
	batches := x.sink.batches
	v["calib.observe_batch_us"] = timeIt(len(batches), func(i int) { cal.ObserveBatch(batches[i]) })
	v["calib.apply_us"] = timeIt(probeInputs, func(int) { cal.Apply(w.table) })

	parts := v["exec.transport_new_us"] + v["exec.plan_us"] + v["exec.run_us"]
	v["trace.unattributed_us"] = root.mean() - parts
	v["trace.unattributed_ratio"] = v["trace.unattributed_us"] / root.mean()
	fmt.Fprintf(out, "bench: exchange-mem attribution, µs per exchange: op %.1f = transport_new %.1f + plan %.1f + run %.1f + unattributed %.1f\n",
		root.mean(), v["exec.transport_new_us"], v["exec.plan_us"], v["exec.run_us"], v["trace.unattributed_us"])
	return nil
}
