// Command bench is hetsched's benchmark: four workloads over the real
// serving and executing stack, built in this process from the packages'
// public constructors and driven closed-loop. A timed run reports the
// end-to-end metrics; a separate traced run reports one set of metrics
// per layer. README.md in this directory defines every metric.
//
//	go run ./bench -workload serve-miss -seed 1 -seconds 25 -trace 0
//	go run ./bench -workload serve-live -seed 1 -trace 1
//	go run ./bench -repeat 10
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd lists what a timed run reports, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"lat_p50_ms", "ms"},
	{"lat_p95_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"alloc_kb_per_op", "KiB"},
	{"allocs_per_op", "1"},
	{"tmax_over_tlb", "ratio"},
}

var workloadNames = []string{"serve-miss", "serve-hot", "serve-live", "exchange-mem"}

// workload is one traffic mix over one stack.
type workload interface {
	clients() int
	// inputs fingerprints what the workload will send for its seed.
	inputs() string
	// setup brings the stack up, dials, and runs the fixed-count warm-up.
	setup() error
	// round issues timed operations on the meter until done.
	round(m *meter, done func() bool) error
	// check runs the correctness gate on held-back results, off the clock.
	check()
	// finish runs the workload's determinism self-checks.
	finish() error
	teardown()
	total() tally
	// quality is the mean t_max/t_lb over the plans produced.
	quality() float64
}

func newWorkload(name string, cfg config) (workload, error) {
	switch name {
	case "serve-miss":
		return newMissWL(cfg), nil
	case "serve-hot":
		return newHotWL(cfg), nil
	case "serve-live":
		return newLiveWL(cfg), nil
	case "exchange-mem":
		return newExchangeWL(cfg), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// result is the line a run ends with.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newResult(t tally, selfCheck error, defs []metricDef, values map[string]float64) result {
	if selfCheck != nil {
		fmt.Fprintln(os.Stderr, "bench: self-check failed:", selfCheck)
	}
	if t.failed > 0 {
		fmt.Fprintf(os.Stderr, "bench: %d of %d operations failed, first: %s\n", t.failed, t.attempted, t.firstFailure)
	}
	r := result{Correct: selfCheck == nil && t.failed == 0 && t.attempted > 0,
		Attempted: t.attempted, Failed: t.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		r.Metrics[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
	}
	return r
}

// runPlan shapes a timed run.
type runPlan struct {
	setups   int           // set-ups performed; the last one's stack is measured
	rounds   int           // timed rounds; each timing metric reports its best
	roundLen time.Duration // timed wall per round
	minOps   int           // operations a round must hold, however long that takes
}

// fullPlan splits the driver's --seconds into ten rounds: 2.5 s each at
// the 25 s BENCHMARK.json asks for.
func fullPlan(seconds int) runPlan {
	return runPlan{setups: 5, rounds: 10, roundLen: time.Duration(seconds) * time.Second / 10, minOps: minRoundOps}
}

// timedRun measures the end-to-end metrics: the set-ups, then the timed
// rounds with the correctness gate between them.
func timedRun(name string, seed int64, plan runPlan, out io.Writer) (result, error) {
	clients := runtime.NumCPU()
	if clients > 2 {
		clients = 2
	}
	w, err := newWorkload(name, config{seed: seed, clients: clients})
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(out, "bench: %s seed=%d clients=%d inputs=%s\n", name, seed, w.clients(), w.inputs())
	defer w.teardown()
	var setups []float64
	for i := 0; i < plan.setups; i++ {
		w.teardown()
		runtime.GC()
		start := time.Now()
		if err := w.setup(); err != nil {
			return result{}, fmt.Errorf("%s set-up: %w", name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	m := newMeter(w.clients())
	var stats []roundStats
	for r := 0; r < plan.rounds; r++ {
		m.reset()
		if err := w.round(m, m.timeUp(plan.roundLen, plan.minOps)); err != nil {
			return result{}, fmt.Errorf("%s round %d: %w", name, r, err)
		}
		rs := m.stats()
		stats = append(stats, rs)
		w.check()
		fmt.Fprintf(out, "bench: %s round %2d: %6d ops in %v, cpu %v, p50 %v p95 %v\n", name, r,
			rs.ops, rs.wall.Round(time.Millisecond), rs.cpu.Round(time.Millisecond), rs.p50, rs.p95)
	}
	values := aggregate(stats)
	values["setup_s"] = steadyBest(setups, false)
	values["tmax_over_tlb"] = w.quality()
	return newResult(w.total(), w.finish(), endToEnd, values), nil
}

func main() {
	var (
		name    = flag.String("workload", "", "one of serve-miss, serve-hot, serve-live, exchange-mem")
		seed    = flag.Int64("seed", 1, "seed every input is generated from")
		seconds = flag.Int("seconds", 25, "timed run: seconds measured, split into 10 rounds")
		trace   = flag.Int("trace", 0, "1 runs the traced per-layer run instead of the timed run")
		dir     = flag.String("trace-dir", ".bench_build/trace", "traced run: directory for trace-<workload>.json")
		repeat  = flag.Int("repeat", 0, "noise protocol: run every workload this many times and check the spreads against BENCHMARK.json")
	)
	flag.Parse()
	if *repeat > 0 {
		os.Exit(repeatRuns(*repeat, *seed))
	}
	var (
		res result
		err error
	)
	if *trace != 0 {
		res, err = tracedRun(*name, *seed, *dir, os.Stderr)
	} else {
		res, err = timedRun(*name, *seed, fullPlan(*seconds), os.Stderr)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
