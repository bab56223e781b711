// Command hcsim executes a scheduled total exchange through the
// discrete-event simulator and reports what actually happens under
// FIFO receive arbitration, optional bandwidth drift, and the
// Section 6.1 receive-model variants.
//
//	hcsim -p 16 -size 1048576 -alg openshop                 # base model
//	hcsim -p 16 -model interleaved -alpha 0.3               # §6.1 threads
//	hcsim -p 16 -model buffered -capacity 4                 # §6.1 buffers
//	hcsim -p 16 -drift 0.3 -checkpoint every -replan        # §6.3 adaptivity
//	hcsim -p 16 -faults 5 -checkpoint every -replan         # seeded link failures
//	hcsim -net state.json -alg maxmatch                     # saved network
//	hcsim -p 16 -trace out.json                             # write a Chrome/Perfetto trace
//	hcsim -p 8 -execute -transport mem                      # real byte transfers, in-process
//	hcsim -p 8 -execute -transport tcp -faults 2            # loopback TCP, 2 seeded node kills
//	hcsim -p 8 -execute -calibrate                          # fit measured timings, print verdicts
//	hcsim -p 8 -execute -calibrate -calibrate-push :7474    # and feed them to a live directory
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sync"

	"hetsched"
	"hetsched/internal/calib"
	"hetsched/internal/directory"
	dataplane "hetsched/internal/exec"
	"hetsched/internal/faults"
	"hetsched/internal/netmodel"
	"hetsched/internal/obs"
	"hetsched/internal/sim"
	"hetsched/internal/timing"
)

func main() {
	var (
		netFile    = flag.String("net", "", "load network state from a JSON file (see hcquery -emit / hcdird -save)")
		traceOut   = flag.String("trace", "", "write the executed schedule as Chrome trace_event JSON (chrome://tracing, Perfetto)")
		p          = flag.Int("p", 16, "processors for random generation")
		seed       = flag.Int64("seed", 1, "random seed")
		size       = flag.Int64("size", 1<<20, "message size in bytes")
		alg        = flag.String("alg", "openshop", "scheduler that builds the plan")
		modelName  = flag.String("model", "exclusive", "receive model: exclusive, interleaved, buffered")
		alpha      = flag.Float64("alpha", 0.25, "context-switch overhead for -model interleaved")
		capacity   = flag.Int("capacity", 4, "buffer capacity for -model buffered")
		drift      = flag.Float64("drift", 0, "if > 0, crash this fraction of links to 10% bandwidth mid-run")
		faultCount = flag.Int("faults", 0, "inject this many seeded mid-run link degradations/failures (exclusive model)")
		checkpoint = flag.String("checkpoint", "none", "checkpoint policy: none, every, halving")
		replan     = flag.Bool("replan", false, "reschedule the tail at checkpoints (otherwise keep order)")
		execute    = flag.Bool("execute", false, "perform the plan as real byte transfers over a transport (with -execute, -faults kills that many seeded nodes mid-exchange)")
		transport  = flag.String("transport", "mem", "-execute transport: mem (in-process pipes) or tcp (loopback sockets)")
		slack      = flag.Float64("slack", 0, "-execute deadline slack factor over modeled transfer times (0 = executor default)")
		calibrate  = flag.Bool("calibrate", false, "with -execute, fit a network calibrator from the measured transfer timings and print its per-pair verdicts")
		calibPush  = flag.String("calibrate-push", "", "with -calibrate, also push trusted estimates to the directory service at this address")
	)
	flag.Parse()

	rng := rand.New(rand.NewSource(*seed))
	var perf *hetsched.Perf
	var names []string
	if *netFile != "" {
		data, err := os.ReadFile(*netFile)
		if err != nil {
			fatal(err)
		}
		perf, names, err = netmodel.UnmarshalPerf(data)
		if err != nil {
			fatal(err)
		}
	} else {
		perf = hetsched.RandomPerf(rng, *p, hetsched.GustoGuided())
	}

	// -trace: record checkpoint/replan instants during execution and the
	// executed schedule afterwards, then write one Perfetto-loadable file.
	var tracer *obs.Tracer
	if *traceOut != "" {
		tracer = obs.NewTracer(nil)
		sim.SetTelemetry(nil, tracer)
		defer sim.SetTelemetry(nil, nil)
	}
	n := perf.N()
	sizes := hetsched.UniformSizes(n, *size)
	m, err := hetsched.Build(perf, sizes)
	if err != nil {
		fatal(err)
	}
	scheduler, err := hetsched.SchedulerByName(*alg)
	if err != nil {
		fatal(err)
	}
	res, err := scheduler.Schedule(m)
	if err != nil {
		fatal(err)
	}
	plan, err := hetsched.PlanFromSchedule(res.Schedule, sizes)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("plan: %s over %d processors, %d events\n", res.Algorithm, n, plan.Events())
	fmt.Printf("planned completion: %.4g s (lower bound %.4g s)\n", res.CompletionTime(), res.LowerBound)

	if *execute {
		runExecute(rng, res, m, sizes, perf, *transport, *slack, *faultCount, *calibrate, *calibPush, tracer)
		writeTrace(tracer, *traceOut, nil, names)
		return
	}
	if *calibrate {
		fatal(fmt.Errorf("-calibrate needs -execute: calibration fits measured transfers, and only -execute moves bytes"))
	}

	// The execution network, optionally shifting mid-run.
	var network hetsched.Network = sim.NewStatic(perf)
	var observe func(float64) *hetsched.Perf
	var faultTimes []float64
	if *faultCount > 0 {
		if *modelName != "exclusive" {
			fatal(fmt.Errorf("-faults needs -model exclusive (reactive re-planning)"))
		}
		if *drift > 0 {
			fatal(fmt.Errorf("-faults cannot combine with -drift"))
		}
		events := faults.RandomLinkEvents(rng, n, *faultCount, res.CompletionTime())
		fn, err := faults.NewNetwork(perf, events)
		if err != nil {
			fatal(err)
		}
		network = fn
		observe = fn.At
		faultTimes = fn.Times()
		for _, e := range events {
			if e.Factor == 0 {
				fmt.Printf("fault: link %d→%d FAILS at t=%.4g s\n", e.Src, e.Dst, e.Time)
			} else {
				fmt.Printf("fault: link %d→%d degrades to %.0f%% at t=%.4g s\n", e.Src, e.Dst, 100*e.Factor, e.Time)
			}
		}
	} else if *drift > 0 {
		after := perf.Clone()
		crashed := 0
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j && rng.Float64() < *drift {
					pp := after.At(i, j)
					pp.Bandwidth /= 10
					after.Set(i, j, pp)
					crashed++
				}
			}
		}
		shift := res.CompletionTime() / 4
		pw, err := sim.NewPiecewise([]sim.Epoch{{Start: 0, Perf: perf}, {Start: shift, Perf: after}})
		if err != nil {
			fatal(err)
		}
		network = pw
		observe = pw.At
		fmt.Printf("drift: %d links crash 10x at t=%.4g s\n", crashed, shift)
	} else {
		st := sim.NewStatic(perf)
		observe = func(float64) *hetsched.Perf { return st.Perf() }
	}

	var executed *timing.Schedule
	switch *modelName {
	case "exclusive":
		var policy hetsched.CheckpointPolicy
		switch *checkpoint {
		case "none":
			policy = hetsched.NoCheckpoints{}
		case "every":
			policy = hetsched.EveryEvents{K: n}
		case "halving":
			policy = hetsched.Halving{}
		default:
			fatal(fmt.Errorf("unknown checkpoint policy %q", *checkpoint))
		}
		rp := hetsched.KeepOrder
		rpName := "keep-order"
		if *replan {
			rp = hetsched.ReplanOpenShop
			rpName = "openshop"
		}
		if *faultCount > 0 {
			// Reactive mode: checkpoint on schedule but only re-plan when a
			// fault event actually landed in the window just executed.
			rr, err := sim.RunReactive(network, observe, faultTimes, plan, policy, rp)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("executed (exclusive, reactive, checkpoints=%s, replan=%s): finish %.4g s, %d checkpoints, %d replans\n",
				policy.Name(), rpName, rr.Finish, rr.Checkpoints, rr.Replans)
			executed = rr.Schedule
			break
		}
		ck, err := hetsched.SimulateCheckpointed(network, observe, plan, policy, rp)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("executed (exclusive, checkpoints=%s, replan=%s): finish %.4g s, %d checkpoints\n",
			policy.Name(), rpName, ck.Finish, ck.Checkpoints)
		executed = ck.Schedule
	case "interleaved":
		exec, err := hetsched.SimulateInterleaved(network, plan, *alpha)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("executed (interleaved, α=%.2f): finish %.4g s\n", *alpha, exec.Finish)
		executed = exec.Schedule
	case "buffered":
		exec, err := hetsched.SimulateBuffered(network, plan, *capacity)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("executed (buffered, capacity=%d): finish %.4g s\n", *capacity, exec.Finish)
		executed = exec.Schedule
	default:
		fatal(fmt.Errorf("unknown receive model %q", *modelName))
	}

	writeTrace(tracer, *traceOut, executed, names)
}

// writeTrace renders the executed schedule (when there is one) plus
// any instants the run recorded into one Perfetto-loadable file.
func writeTrace(tracer *obs.Tracer, path string, executed *timing.Schedule, names []string) {
	if tracer == nil || path == "" {
		return
	}
	if executed != nil {
		obs.TraceSchedule(tracer, "exec", executed, names)
	}
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	if err := tracer.WriteJSON(f); err != nil {
		f.Close()
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	fmt.Printf("trace: %d events written to %s (load in chrome://tracing or Perfetto)\n",
		tracer.Len(), path)
}

// runExecute performs the plan as real byte transfers over a data-plane
// transport. With faultCount > 0 it kills that many seeded nodes
// mid-exchange — each kill triggers after a seeded number of deliveries
// — and lets the executor recover via residual rescheduling. With
// calibrate, the measured per-transfer timings feed a network
// calibrator seeded from the planning table; its per-pair verdicts are
// printed after the exchange, and pushAddr sends trusted estimates to
// a live directory over the calibrate op.
func runExecute(rng *rand.Rand, res *hetsched.Result, m *hetsched.Matrix,
	sizes *hetsched.Sizes, perf *hetsched.Perf, transport string, slack float64,
	faultCount int, calibrate bool, pushAddr string, tracer *obs.Tracer) {
	n := m.N()
	var tr dataplane.Transport
	var err error
	switch transport {
	case "mem":
		tr, err = dataplane.NewMem(n)
	case "tcp":
		tr, err = dataplane.NewTCP(n)
	default:
		err = fmt.Errorf("unknown transport %q (mem, tcp)", transport)
	}
	if err != nil {
		fatal(err)
	}
	if faultCount > n-2 {
		faultCount = n - 2
		fmt.Printf("capping -faults at %d so at least two nodes survive\n", faultCount)
	}
	victims := rng.Perm(n)[:max(faultCount, 0)]
	total := n * (n - 1)
	triggers := make([]int, len(victims))
	for i := range triggers {
		// Seeded points spread across the exchange's delivery count.
		triggers[i] = 1 + rng.Intn(max(total/2, 1)) + i*total/(2*max(len(victims), 1))
	}
	var (
		mu        sync.Mutex
		delivered int
		nextKill  int
	)
	cfg := dataplane.Config{Slack: slack, Tracer: tracer}
	var cal *calib.Calibrator
	if calibrate {
		var err error
		if cal, err = calib.New(perf, calib.Config{}); err != nil {
			fatal(err)
		}
		var sink func([]calib.Update) error
		if pushAddr != "" {
			rc := directory.NewResilientClient(pushAddr, directory.ResilientConfig{})
			defer rc.Close()
			sink = directory.CalibrateSink(rc)
		}
		cfg.Samples = func(samples []calib.Sample) {
			cal.ObserveBatch(samples)
			if sink == nil {
				return
			}
			if updates := cal.Updates(); len(updates) > 0 {
				if err := sink(updates); err != nil {
					fmt.Printf("calibrate: push to %s failed: %v\n", pushAddr, err)
				} else {
					fmt.Printf("calibrate: pushed %d trusted pair estimates to %s\n", len(updates), pushAddr)
				}
			}
		}
	}
	cfg.Deliver = func(src, dst int, payload []byte) {
		mu.Lock()
		delivered++
		kill := -1
		if nextKill < len(victims) && delivered >= triggers[nextKill] {
			kill = victims[nextKill]
			nextKill++
		}
		mu.Unlock()
		if kill >= 0 {
			fmt.Printf("fault: killing P%d after %d deliveries\n", kill, delivered)
			tr.Kill(kill)
		}
	}
	ex, err := dataplane.New(tr, cfg)
	if err != nil {
		fatal(err)
	}
	rep, err := ex.Run(context.Background(), res, m, sizes)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("executed (%s transport): %d/%d transfers delivered\n",
		transport, rep.DeliveredTransfers+rep.ReroutedTransfers, total)
	fmt.Print(rep.String())
	if cal != nil {
		printCalibration(cal, sizes)
	}
}

// printCalibration renders the calibrator's verdict on the measured
// network: totals, then every measured pair's estimate against the
// table it planned from.
func printCalibration(cal *calib.Calibrator, sizes *hetsched.Sizes) {
	sum := cal.Summarize()
	fmt.Printf("calibration: %d samples accepted, %d rejected; %d/%d measured pairs trusted (threshold %.2f)\n",
		sum.Accepted, sum.Rejected, sum.TrustedPairs, sum.MeasuredPairs, sum.TrustThreshold)
	n := cal.N()
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			pe := cal.Pair(src, dst)
			if pe.Accepted == 0 && pe.Rejected == 0 {
				continue
			}
			state := "distrusted"
			if pe.Trusted {
				state = "trusted"
			}
			modeled := pe.Prior.TransferTime(sizes.At(src, dst))
			measured := pe.Perf.TransferTime(sizes.At(src, dst))
			fmt.Printf("  P%d->P%d: %s conf %.2f, table %.4gs vs measured %.4gs (%d accepted, %d rejected)\n",
				src, dst, state, pe.Confidence, modeled, measured, pe.Accepted, pe.Rejected)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hcsim:", err)
	os.Exit(1)
}
