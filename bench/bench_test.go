package main

import (
	"bytes"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"hetsched/internal/exec"
	"hetsched/internal/model"
	"hetsched/internal/netmodel"
	"hetsched/internal/sched"
)

func TestPercentileIsNearestRank(t *testing.T) {
	d := func(ms ...int) []time.Duration {
		out := make([]time.Duration, len(ms))
		for i, v := range ms {
			out[i] = time.Duration(v) * time.Millisecond
		}
		return out
	}
	cases := []struct {
		samples []time.Duration
		q       float64
		want    time.Duration
	}{
		{d(5), 0.5, 5 * time.Millisecond},
		{d(4, 1, 3, 2), 0.5, 2 * time.Millisecond},     // rank ceil(2) = 2
		{d(5, 1, 4, 2, 3), 0.5, 3 * time.Millisecond},  // rank ceil(2.5) = 3
		{d(5, 1, 4, 2, 3), 0.95, 5 * time.Millisecond}, // rank ceil(4.75) = 5
		{d(1, 2, 3, 4, 5, 6, 7, 8, 9, 10), 0.9, 9 * time.Millisecond},
		{nil, 0.5, 0},
	}
	for _, c := range cases {
		if got := percentile(c.samples, c.q); got != c.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", c.samples, c.q, got, c.want)
		}
	}
	// 200 samples leave exactly ten beyond the p95.
	samples := make([]time.Duration, minRoundOps)
	for i := range samples {
		samples[i] = time.Duration(i + 1)
	}
	if got := percentile(samples, 0.95); got != 190 {
		t.Errorf("p95 of 1..200 = %d, want 190", got)
	}
}

func TestSteadyBestDropsTheBestAndAveragesTheNextThree(t *testing.T) {
	rates := []float64{100, 140, 110, 90, 120, 130, 80}
	if got := steadyBest(rates, true); got != 120 { // drops 140; mean(130, 120, 110)
		t.Errorf("steadyBest(rates, higher) = %v, want 120", got)
	}
	if got := steadyBest(rates, false); got != 100 { // drops 80; mean(90, 100, 110)
		t.Errorf("steadyBest(rates, lower) = %v, want 100", got)
	}
	for _, c := range []struct {
		in   []float64
		want float64
	}{{[]float64{7}, 7}, {[]float64{7, 9}, 7}, {[]float64{9, 7, 5}, 6}} {
		if got := steadyBest(c.in, true); got != c.want {
			t.Errorf("steadyBest(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestAggregateUsesSteadyBestForTimesAndMedianForCounts(t *testing.T) {
	round := func(ops int, cpuMS, allocKB, mallocs, p50, p95 int) roundStats {
		return roundStats{ops: ops, wall: time.Second, cpu: time.Duration(cpuMS) * time.Millisecond,
			allocBytes: uint64(allocKB) << 10, mallocs: uint64(mallocs),
			p50: time.Duration(p50) * time.Millisecond, p95: time.Duration(p95) * time.Millisecond}
	}
	rounds := []roundStats{
		round(100, 500, 100, 300, 5, 10),
		round(500, 500, 5000, 500, 1, 60), // the lucky round: best rate and p50, worst p95
		round(200, 600, 600, 400, 4, 20),
		round(300, 600, 900, 300, 3, 30),
		round(400, 400, 800, 800, 2, 40),
	}
	got := aggregate(rounds)
	want := map[string]float64{
		"ops_per_s":       300, // mean(400, 300, 200)
		"lat_p50_ms":      3,   // mean(2, 3, 4)
		"lat_p95_ms":      30,  // mean(20, 30, 40): each metric orders the rounds for itself
		"cpu_ms_per_op":   2,   // per-op 5, 1, 3, 2, 1 → drops one 1; mean(1, 2, 3)
		"alloc_kb_per_op": 3,   // median of 1, 10, 3, 3, 2
		"allocs_per_op":   2,   // median of 3, 1, 2, 1, 2
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("aggregate = %v, want %v", got, want)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q3 != 12 {
		t.Errorf("quartiles(1,2,4,8,16) = %v, %v, want 1.5, 12", q1, q3)
	}
}

func TestSpanContainmentAndSelfTime(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(us int) time.Time { return t0.Add(time.Duration(us) * time.Microsecond) }
	rec := newRecorder()
	// Recorded in completion order, as seams record them: children first.
	rec.add("directory.snapshot", at(10), at(40), "")
	rec.add("sched.schedule", at(30), at(70), "") // overlaps the snapshot by 10
	rec.add("inner", at(45), at(55), "")          // grandchild: inside schedule only
	rec.add("serve.rtt", at(0), at(100), "miss")
	rec.add("serve.rtt", at(200), at(250), "hit")
	rec.add("directory.gen_probe", at(200), at(220), "") // starts with its parent
	spans := resolveSpans(append([]span(nil), rec.spans...))

	byStart := map[string]span{}
	index := map[string]int{}
	for i, s := range spans {
		key := s.Name + "@" + s.Start.Sub(t0).String()
		byStart[key], index[key] = s, i
	}
	root1, root2 := "serve.rtt@0s", "serve.rtt@200µs"
	for key, wantParent := range map[string]string{
		"directory.snapshot@10µs":   root1,
		"sched.schedule@30µs":       root1,
		"inner@45µs":                "sched.schedule@30µs",
		"directory.gen_probe@200µs": root2,
	} {
		if got := byStart[key].Parent; got != index[wantParent] {
			t.Errorf("%s: parent %d, want %d (%s)", key, got, index[wantParent], wantParent)
		}
	}
	if byStart[root1].Parent != -1 || byStart[root2].Parent != -1 {
		t.Errorf("roots must have no parent")
	}
	if byStart["inner@45µs"].Req != 0 || byStart["directory.gen_probe@200µs"].Req != 1 {
		t.Errorf("request ids: inner %d want 0, gen_probe %d want 1",
			byStart["inner@45µs"].Req, byStart["directory.gen_probe@200µs"].Req)
	}
	self := selfTimes(spans)
	for key, want := range map[string]time.Duration{
		root1:                     40 * time.Microsecond, // 100 − union(10..40, 30..70) = 100 − 60
		"sched.schedule@30µs":     30 * time.Microsecond, // 40 − 10
		"inner@45µs":              10 * time.Microsecond,
		"directory.snapshot@10µs": 30 * time.Microsecond,
		root2:                     30 * time.Microsecond,
	} {
		if got := self[index[key]]; got != want {
			t.Errorf("%s: self time %v, want %v", key, got, want)
		}
	}
}

func TestChromeTraceIsLoadable(t *testing.T) {
	t0 := time.Unix(0, 0)
	spans := resolveSpans([]span{
		{Name: "serve.rtt", Start: t0, End: t0.Add(time.Millisecond), Note: "miss"},
		{Name: "sched.schedule", Start: t0.Add(100 * time.Microsecond), End: t0.Add(900 * time.Microsecond)},
	})
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := writeChromeTrace(path, spans); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"traceEvents"`, `"name":"sched.schedule"`, `"cat":"sched"`, `"ph":"X"`, `"ts":100`, `"dur":800`, `"parent":0`} {
		if !bytes.Contains(data, []byte(want)) {
			t.Errorf("trace lacks %s: %s", want, data)
		}
	}
}

type fixedScheduler struct {
	res *sched.Result
	err error
}

func (fixedScheduler) Name() string                                    { return "fixed" }
func (f fixedScheduler) Schedule(*model.Matrix) (*sched.Result, error) { return f.res, f.err }

func TestSeamsForwardUnchanged(t *testing.T) {
	rec := newRecorder()
	perf, wantErr := netmodel.NewPerf(2), errors.New("directory down")

	src := tracedSource(rec, func() (*netmodel.Perf, error) { return perf, wantErr })
	if p, err := src(); p != perf || err != wantErr {
		t.Errorf("tracedSource changed its results: %p %v", p, err)
	}
	gen := tracedGen(rec, func() (uint64, error) { return 42, wantErr })
	if v, err := gen(); v != 42 || err != wantErr {
		t.Errorf("tracedGen changed its results: %d %v", v, err)
	}
	res := &sched.Result{Algorithm: "fixed"}
	ts := tracedScheduler{rec: rec, inner: fixedScheduler{res: res, err: wantErr}}
	if r, err := ts.Schedule(nil); r != res || err != wantErr || ts.Name() != "fixed" {
		t.Errorf("tracedScheduler changed name or results: %q %p %v", ts.Name(), r, err)
	}
	if got := len(rec.resolve()); got != 3 {
		t.Errorf("three seam calls recorded %d spans", got)
	}
	// A nil recorder is the recorder-off configuration.
	if p, err := tracedSource(nil, func() (*netmodel.Perf, error) { return perf, nil })(); p != perf || err != nil {
		t.Errorf("tracedSource with no recorder changed its results")
	}

	var ctr execCounters
	payload := timedPayload(&ctr, exec.DefaultPayload)
	if !bytes.Equal(payload(1, 2, 999), exec.DefaultPayload(1, 2, 999)) || ctr.payloads.Load() != 1 {
		t.Errorf("timedPayload changed the payload or miscounted")
	}

	mem, err := exec.NewMem(2)
	if err != nil {
		t.Fatal(err)
	}
	defer mem.Close()
	tr := countedTransport{Transport: mem, ctr: &ctr}
	accepted := make(chan []byte, 1)
	go func() {
		c, err := tr.Accept(1)
		if err != nil {
			accepted <- nil
			return
		}
		buf := make([]byte, 5)
		io.ReadFull(c, buf)
		c.Write([]byte("ok"))
		accepted <- buf
	}()
	c, err := tr.Dial(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	ack := make([]byte, 2)
	if _, err := io.ReadFull(c, ack); err != nil {
		t.Fatal(err)
	}
	if got := <-accepted; string(got) != "hello" || string(ack) != "ok" {
		t.Errorf("countedTransport changed the bytes: %q / %q", got, ack)
	}
	if ctr.dials.Load() != 1 || ctr.wireBytes.Load() != 7 {
		t.Errorf("counted %d dials and %d bytes, want 1 and 7", ctr.dials.Load(), ctr.wireBytes.Load())
	}
	if _, err := tr.Dial(0, 5); err == nil {
		t.Errorf("countedTransport swallowed a dial error")
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, name := range workloadNames {
		a, _ := newWorkload(name, config{seed: 7, clients: 2})
		b, _ := newWorkload(name, config{seed: 7, clients: 2})
		c, _ := newWorkload(name, config{seed: 8, clients: 2})
		if a.inputs() != b.inputs() {
			t.Errorf("%s: one seed, two input sequences", name)
		}
		if a.inputs() == c.inputs() {
			t.Errorf("%s: two seeds, one input sequence", name)
		}
	}
}

// manifestNames returns the names and units BENCHMARK.json declares.
func manifestDefs(ms []manifestMetric) []metricDef {
	var out []metricDef
	for _, m := range ms {
		out = append(out, metricDef{m.Name, m.Unit})
	}
	return out
}

func TestManifestNamesWhatTheBenchmarkEmits(t *testing.T) {
	man, err := readManifest(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range man.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads: BENCHMARK.json has %v, the benchmark runs %v", names, workloadNames)
	}
	if got := manifestDefs(man.EndToEnd); !reflect.DeepEqual(got, endToEnd) {
		t.Errorf("end_to_end: BENCHMARK.json has %v, the benchmark emits %v", got, endToEnd)
	}
	if got := manifestDefs(man.PerLayer); !reflect.DeepEqual(got, perLayer) {
		t.Errorf("per_layer: BENCHMARK.json has %v, the benchmark emits %v", got, perLayer)
	}
	for _, m := range man.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(man.Paths) != 1 || man.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", man.Paths)
	}
}

// smoke is a timed run cut down to one set-up and two 100 ms rounds.
var smoke = runPlan{setups: 1, rounds: 2, roundLen: 100 * time.Millisecond, minOps: 20}

func TestSmokeTimedRunEmitsEveryEndToEndMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("brings up the serving stack")
	}
	for _, name := range workloadNames {
		res, err := timedRun(name, 3, smoke, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < smoke.rounds*smoke.minOps {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", name, res.Correct, res.Attempted, res.Failed)
		}
		if len(res.Metrics) != len(endToEnd) {
			t.Errorf("%s: %d metrics, want %d", name, len(res.Metrics), len(endToEnd))
		}
		for _, d := range endToEnd {
			mv, ok := res.Metrics[d.name]
			if !ok || mv.Unit != d.unit || !(mv.Value > 0) || math.IsInf(mv.Value, 0) {
				t.Errorf("%s: %s = %+v (present %v), want a positive %s", name, d.name, mv, ok, d.unit)
			}
		}
	}
}

func TestEpochBarrierYieldsExactly64Plans(t *testing.T) {
	if testing.Short() {
		t.Skip("brings up the serving stack")
	}
	for _, clients := range []int{1, 2} {
		w := newLiveWL(config{seed: 5, clients: clients})
		if err := w.setup(); err != nil { // three warm-up epochs, each held to the plan count
			t.Fatal(err)
		}
		m := newMeter(clients)
		const epochs = 3
		for e := 0; e < epochs; e++ {
			if err := w.epoch(m); err != nil {
				t.Fatal(err)
			}
		}
		d, total := w.daemonDelta(), w.total()
		if got := int(d.Plans) - w.fencePlans; got != epochs*workingSet {
			t.Errorf("%d clients: %d plans in %d epochs, want %d", clients, got, epochs, epochs*workingSet)
		}
		if total.attempted != epochs*epochOps || total.plans != epochs*workingSet || total.failed != 0 {
			t.Errorf("%d clients: attempted %d, replans %d, failed %d (%s)", clients,
				total.attempted, total.plans, total.failed, total.firstFailure)
		}
		if err := w.finish(); err != nil {
			t.Errorf("%d clients: %v", clients, err)
		}
		w.teardown()
	}
}
