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
	"io"
	"math/rand"
	"os"
	"sync"
	"time"

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
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "hcsim:", err)
		os.Exit(1)
	}
}

// run parses args, runs the simulation or the execution they select, and
// writes the report to stdout.
func run(args []string, stdout io.Writer) error {
	flags := flag.NewFlagSet("hcsim", flag.ExitOnError)
	var (
		netFile    = flags.String("net", "", "load network state from a JSON file (see hcquery -emit / hcdird -save)")
		traceOut   = flags.String("trace", "", "write the executed schedule as Chrome trace_event JSON (chrome://tracing, Perfetto)")
		p          = flags.Int("p", 16, "processors for random generation")
		seed       = flags.Int64("seed", 1, "random seed")
		size       = flags.Int64("size", 1<<20, "message size in bytes")
		alg        = flags.String("alg", "openshop", "scheduler that builds the plan")
		modelName  = flags.String("model", "exclusive", "receive model: exclusive, interleaved, buffered")
		alpha      = flags.Float64("alpha", 0.25, "context-switch overhead for -model interleaved")
		capacity   = flags.Int("capacity", 4, "buffer capacity for -model buffered")
		drift      = flags.Float64("drift", 0, "if > 0, crash this fraction of links to 10% bandwidth mid-run")
		faultCount = flags.Int("faults", 0, "inject this many seeded mid-run link degradations/failures (exclusive model)")
		checkpoint = flags.String("checkpoint", "none", "checkpoint policy: none, every, halving")
		replan     = flags.Bool("replan", false, "reschedule the tail at checkpoints (otherwise keep order)")
		execute    = flags.Bool("execute", false, "perform the plan as real byte transfers over a transport (with -execute, -faults kills that many seeded nodes mid-exchange)")
		transport  = flags.String("transport", "mem", "-execute transport: mem (in-process pipes) or tcp (loopback sockets)")
		slack      = flags.Float64("slack", 0, "-execute deadline slack factor over modeled transfer times (0 = executor default)")
		calibrate  = flags.Bool("calibrate", false, "with -execute, fit a network calibrator from the measured transfer timings and print its per-pair verdicts")
		calibPush  = flags.String("calibrate-push", "", "with -calibrate, also push trusted estimates to the directory service at this address")
	)
	if err := flags.Parse(args); err != nil {
		return err
	}

	rng := rand.New(rand.NewSource(*seed))
	var perf *hetsched.Perf
	var names []string
	if *netFile != "" {
		data, err := os.ReadFile(*netFile)
		if err != nil {
			return err
		}
		perf, names, err = netmodel.UnmarshalPerf(data)
		if err != nil {
			return err
		}
	} else {
		perf = hetsched.RandomPerf(rng, *p, hetsched.GustoGuided())
	}

	n := perf.N()
	sizes := hetsched.UniformSizes(n, *size)
	m, err := hetsched.Build(perf, sizes)
	if err != nil {
		return err
	}
	scheduler, err := hetsched.SchedulerByName(*alg)
	if err != nil {
		return err
	}
	res, err := scheduler.Schedule(m)
	if err != nil {
		return err
	}
	plan, err := hetsched.PlanFromSchedule(res.Schedule, sizes)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "plan: %s over %d processors, %d events\n", res.Algorithm, n, plan.Events())
	fmt.Fprintf(stdout, "planned completion: %.4g s (lower bound %.4g s)\n", res.CompletionTime(), res.LowerBound)

	if *execute {
		// -trace: the exchange's spans land on a live request trace.
		ctx := context.Background()
		var rt *obs.ReqTrace
		if *traceOut != "" {
			rt = obs.NewReqTrace(0, nil)
			ctx = obs.WithReqTrace(ctx, rt)
		}
		if err := runExecute(ctx, stdout, rng, scheduler, perf, sizes, *transport, *slack, *faultCount, *calibrate, *calibPush); err != nil {
			return err
		}
		return writeTrace(stdout, *traceOut, rt)
	}
	if *calibrate {
		return fmt.Errorf("-calibrate needs -execute: calibration fits measured transfers, and only -execute moves bytes")
	}

	// The execution network, optionally shifting mid-run.
	var network hetsched.Network = sim.NewStatic(perf)
	var observe func(float64) *hetsched.Perf
	var faultTimes []float64
	if *faultCount > 0 {
		if *modelName != "exclusive" {
			return fmt.Errorf("-faults needs -model exclusive (reactive re-planning)")
		}
		if *drift > 0 {
			return fmt.Errorf("-faults cannot combine with -drift")
		}
		events := faults.RandomLinkEvents(rng, n, *faultCount, res.CompletionTime())
		fn, err := faults.NewNetwork(perf, events)
		if err != nil {
			return err
		}
		network = fn
		observe = fn.At
		faultTimes = fn.Times()
		for _, e := range events {
			if e.Factor == 0 {
				fmt.Fprintf(stdout, "fault: link %d→%d FAILS at t=%.4g s\n", e.Src, e.Dst, e.Time)
			} else {
				fmt.Fprintf(stdout, "fault: link %d→%d degrades to %.0f%% at t=%.4g s\n", e.Src, e.Dst, 100*e.Factor, e.Time)
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
			return err
		}
		network = pw
		observe = pw.At
		fmt.Fprintf(stdout, "drift: %d links crash 10x at t=%.4g s\n", crashed, shift)
	} else {
		st := sim.NewStatic(perf)
		observe = func(float64) *hetsched.Perf { return st.Perf() }
	}

	var (
		executed    *timing.Schedule
		checkpoints []sim.Checkpoint
	)
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
			return fmt.Errorf("unknown checkpoint policy %q", *checkpoint)
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
				return err
			}
			fmt.Fprintf(stdout, "executed (exclusive, reactive, checkpoints=%s, replan=%s): finish %.4g s, %d checkpoints, %d replans\n",
				policy.Name(), rpName, rr.Finish, rr.Checkpoints, rr.Replans)
			executed, checkpoints = rr.Schedule, rr.Log
			break
		}
		ck, err := hetsched.SimulateCheckpointed(network, observe, plan, policy, rp)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "executed (exclusive, checkpoints=%s, replan=%s): finish %.4g s, %d checkpoints\n",
			policy.Name(), rpName, ck.Finish, ck.Checkpoints)
		executed, checkpoints = ck.Schedule, ck.Log
	case "interleaved":
		exec, err := hetsched.SimulateInterleaved(network, plan, *alpha)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "executed (interleaved, α=%.2f): finish %.4g s\n", *alpha, exec.Finish)
		executed = exec.Schedule
	case "buffered":
		exec, err := hetsched.SimulateBuffered(network, plan, *capacity)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "executed (buffered, capacity=%d): finish %.4g s\n", *capacity, exec.Finish)
		executed = exec.Schedule
	default:
		return fmt.Errorf("unknown receive model %q", *modelName)
	}

	if *traceOut == "" {
		return nil
	}
	return writeTrace(stdout, *traceOut, obs.ScheduleTrace(executed, names, checkpointMarks(checkpoints)...))
}

// checkpointMarks renders a run's checkpoints as instants on a
// "control" track, at their simulated times.
func checkpointMarks(log []sim.Checkpoint) []obs.SpanRecord {
	marks := make([]obs.SpanRecord, len(log))
	for i, c := range log {
		at := time.Duration(c.At * float64(time.Second))
		note := fmt.Sprintf("%d remaining", c.Remaining)
		if c.Replanned {
			note = "replanned, " + note
		}
		marks[i] = obs.SpanRecord{Track: "control", Name: "checkpoint", Start: at, End: at, Note: note}
	}
	return marks
}

// writeTrace writes rt to path as one Perfetto-loadable file and says
// how many spans the per-request cap dropped, if any. An empty path
// writes nothing.
func writeTrace(stdout io.Writer, path string, rt *obs.ReqTrace) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WritePerfetto(f, rt); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "trace: %d spans written to %s (load in chrome://tracing or Perfetto)\n",
		len(rt.Spans()), path)
	if n := rt.Dropped(); n > 0 {
		fmt.Fprintf(stdout, "trace: %d spans dropped past the per-request cap\n", n)
	}
	return nil
}

// runExecute plans the exchange through a communicator over the static
// table and performs it as real byte transfers over a data-plane
// transport. With faultCount > 0 it kills that many seeded nodes
// mid-exchange — each kill triggers after a seeded number of deliveries
// — and lets the executor recover via residual rescheduling. With
// calibrate, the communicator carries a network calibrator seeded from
// the planning table, which the exchange's measured transfers feed; its
// per-pair verdicts are printed after the exchange, and pushAddr makes
// a live directory the communicator's calibration sink. ctx carries the
// request trace the exchange's spans land on, if any.
func runExecute(ctx context.Context, stdout io.Writer, rng *rand.Rand, scheduler hetsched.Scheduler,
	perf *hetsched.Perf, sizes *hetsched.Sizes, transport string, slack float64,
	faultCount int, calibrate bool, pushAddr string) error {
	n := perf.N()
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
		return err
	}
	if faultCount > n-2 {
		faultCount = n - 2
		fmt.Fprintf(stdout, "capping -faults at %d so at least two nodes survive\n", faultCount)
	}
	victims := rng.Perm(n)[:max(faultCount, 0)]
	total := n * (n - 1)
	triggers := make([]int, len(victims))
	for i := range triggers {
		// Seeded points spread across the exchange's delivery count.
		triggers[i] = 1 + rng.Intn(max(total/2, 1)) + i*total/(2*max(len(victims), 1))
	}
	ccfg := hetsched.CommConfig{Scheduler: scheduler}
	if calibrate {
		if ccfg.Calibrator, err = calib.New(perf, calib.Config{}); err != nil {
			return err
		}
		if pushAddr != "" {
			rc := directory.NewResilientClient(pushAddr, directory.ResilientConfig{})
			defer rc.Close()
			ccfg.CalibSink = directory.CalibrateSink(rc)
		}
	}
	c, err := hetsched.NewCommunicator(n, hetsched.StaticCommSource(perf), ccfg)
	if err != nil {
		return err
	}
	var (
		mu        sync.Mutex
		delivered int
		nextKill  int
	)
	ecfg := dataplane.Config{Slack: slack}
	ecfg.Deliver = func(src, dst int, payload []byte) {
		mu.Lock()
		delivered++
		kill, at := -1, delivered
		if nextKill < len(victims) && delivered >= triggers[nextKill] {
			kill = victims[nextKill]
			nextKill++
		}
		mu.Unlock()
		if kill >= 0 {
			fmt.Fprintf(stdout, "fault: killing P%d after %d deliveries\n", kill, at)
			tr.Kill(kill)
		}
	}
	rep, _, err := c.ExecuteCtx(ctx, tr, sizes, ecfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "executed (%s transport): %d/%d transfers delivered\n",
		transport, rep.DeliveredTransfers+rep.ReroutedTransfers, total)
	fmt.Fprint(stdout, rep.String())
	if ccfg.Calibrator == nil {
		return nil
	}
	if pushAddr != "" {
		st := c.Stats()
		fmt.Fprintf(stdout, "calibrate: %d pushes of trusted pair estimates to %s, %d failed\n",
			st.CalibPushes, pushAddr, st.CalibPushErrors)
	}
	printCalibration(stdout, ccfg.Calibrator, sizes)
	return nil
}

// printCalibration renders the calibrator's verdict on the measured
// network: totals, then every measured pair's estimate against the
// table it planned from.
func printCalibration(stdout io.Writer, cal *calib.Calibrator, sizes *hetsched.Sizes) {
	sum := cal.Summarize()
	fmt.Fprintf(stdout, "calibration: %d samples accepted, %d rejected; %d/%d measured pairs trusted (threshold %.2f)\n",
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
			fmt.Fprintf(stdout, "  P%d->P%d: %s conf %.2f, table %.4gs vs measured %.4gs (%d accepted, %d rejected)\n",
				src, dst, state, pe.Confidence, modeled, measured, pe.Accepted, pe.Rejected)
		}
	}
}
