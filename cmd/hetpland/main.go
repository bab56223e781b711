// Command hetpland runs the planning-as-a-service daemon: a TCP
// server that answers total-exchange plan requests over the JSON-line
// protocol, with admission control, backpressure, request coalescing,
// a generation-versioned plan cache, and graceful degradation riding
// the communicator's fresh→stale→degraded ladder when the directory
// is unreachable. Overload is always explicit: requests the daemon
// cannot serve in time are shed or expired with retry-after hints,
// never silently dropped.
//
// Usage:
//
//	hetpland -addr 127.0.0.1:7575 -dir 127.0.0.1:7474     # plan against a live directory
//	hetpland -addr 127.0.0.1:7575 -gusto                  # plan against the static GUSTO tables
//	hetpland -gusto -workers 8 -queue 64 -deadline 500ms  # tune admission control
//	hetpland -gusto -metrics-addr 127.0.0.1:9091          # Prometheus /metrics + pprof + /statusz
//	hetpland -gusto -metrics-addr :9091 -tail 256         # retain span trees of tail-latency requests
//	hetpland -dir 127.0.0.1:7474 -calibrate               # overlay calibrated estimates, push them back
//
// Observability: the flight recorder is always on (a fixed ring of
// recent structured events, near-zero idle cost) and dumps to disk on
// SIGQUIT, or automatically when the communicator's health ladder
// degrades. With -tail > 0 the daemon records a span tree per request
// and retains the interesting ones (errors, sheds, expiries, tail
// latency); /statusz shows live state and /statusz/traces exports the
// retained trees as Perfetto-loadable JSON.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"hetsched/internal/calib"
	"hetsched/internal/comm"
	"hetsched/internal/directory"
	"hetsched/internal/netmodel"
	"hetsched/internal/obs"
	"hetsched/internal/serve"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:7575", "listen address")
		dir         = flag.String("dir", "", "directory service address (live mode)")
		gusto       = flag.Bool("gusto", false, "plan against the static GUSTO tables")
		random      = flag.Bool("random", false, "plan against a GUSTO-guided random table")
		p           = flag.Int("p", 10, "processors for -random")
		seed        = flag.Int64("seed", 1, "seed for -random")
		workers     = flag.Int("workers", 4, "planning workers (the in-flight budget)")
		queue       = flag.Int("queue", 64, "admission queue capacity; excess load is shed")
		deadline    = flag.Duration("deadline", time.Second, "default per-request budget when the client sends none")
		maxDeadline = flag.Duration("max-deadline", 10*time.Second, "cap on client-supplied budgets")
		genInterval = flag.Duration("gen-interval", 250*time.Millisecond, "min interval between directory generation probes")
		cacheCap    = flag.Int("cache", 256, "versioned plan cache capacity (entries)")
		drainGrace  = flag.Duration("drain-grace", 2*time.Second, "on SIGINT/SIGTERM, window for connected clients to read final answers")
		idleTimeout = flag.Duration("idle-timeout", 2*time.Minute, "drop connections idle longer than this")
		metricsAddr = flag.String("metrics-addr", "", "serve Prometheus /metrics, /debug/vars, /debug/pprof, and /statusz on this address (empty = disabled)")
		flightSize  = flag.Int("flight-size", 1024, "flight recorder ring size in events (0 disables)")
		flightDump  = flag.String("flight-dump", "", "flight recorder dump path (empty = a file under the OS temp dir)")
		tailCap     = flag.Int("tail", 0, "retain up to this many span trees of interesting requests (0 disables per-request tracing)")
		tailAll     = flag.Bool("tail-all", false, "with -tail, retain every request's span tree, not just interesting ones")
		calibrate   = flag.Bool("calibrate", false, "arm a network calibrator: planning snapshots are overlaid with estimates it trusts, /statusz shows per-pair confidence, and with -dir trusted updates are pushed back to the directory")
	)
	flag.Parse()

	var (
		source comm.Source
		gen    serve.GenFunc
		n      int
		prior  *netmodel.Perf
		rc     *directory.ResilientClient
	)
	switch {
	case *dir != "":
		rc = directory.NewResilientClient(*dir, directory.ResilientConfig{
			DialTimeout:    5 * time.Second,
			RequestTimeout: 5 * time.Second,
		})
		defer rc.Close()
		perf, _, meta, err := rc.Snapshot()
		if err != nil {
			fatal(fmt.Errorf("initial directory snapshot from %s: %w", *dir, err))
		}
		n = perf.N()
		prior = perf
		// A strict source lets the communicator's own ladder observe
		// outages and tag responses honestly; the resilient client's
		// cache still backs the stale rung.
		source = rc.Source(true)
		gen = rc.Version
		fmt.Printf("hetpland: planning for %d processors against directory %s (version %d)\n",
			n, *dir, meta.Version)
	case *gusto:
		perf := netmodel.Gusto()
		n = perf.N()
		prior = perf
		source = comm.StaticSource(perf)
		fmt.Printf("hetpland: planning for %d processors against the static GUSTO tables\n", n)
	case *random:
		perf := netmodel.RandomPerf(rand.New(rand.NewSource(*seed)), *p, netmodel.GustoGuided())
		n = perf.N()
		prior = perf
		source = comm.StaticSource(perf)
		fmt.Printf("hetpland: planning for %d processors against a random table (seed %d)\n", n, *seed)
	default:
		fmt.Fprintln(os.Stderr, "hetpland: pick -dir ADDR, -gusto, or -random")
		os.Exit(1)
	}

	var reg *obs.Registry
	if *metricsAddr != "" {
		reg = obs.Default()
		obs.DeclareStandard(reg)
	}

	var flight *obs.FlightRecorder
	if *flightSize > 0 {
		flight = obs.NewFlightRecorder(*flightSize, nil).WithMetrics(reg)
		if *flightDump != "" {
			flight.SetDumpPath(*flightDump)
		}
	}
	var tail *obs.TailSampler
	if *tailCap > 0 {
		tail = obs.NewTailSampler(*tailCap)
	}

	ccfg := comm.Config{Metrics: reg, Flight: flight}
	var cal *calib.Calibrator
	if *calibrate {
		var err error
		if cal, err = calib.New(prior, calib.Config{Metrics: reg, Flight: flight}); err != nil {
			fatal(err)
		}
		ccfg.Calibrator = cal
		if rc != nil {
			// Close the loop: estimates the calibrator comes to trust
			// flow back to the directory every processor snapshots from.
			ccfg.CalibSink = directory.CalibrateSink(rc)
		}
		fmt.Println("hetpland: network calibration armed (per-pair confidence on /statusz)")
	}
	c, err := comm.New(n, source, ccfg)
	if err != nil {
		fatal(err)
	}
	daemon, err := serve.NewDaemon(c, gen, serve.Config{
		Workers:         *workers,
		Queue:           *queue,
		DefaultDeadline: *deadline,
		MaxDeadline:     *maxDeadline,
		GenInterval:     *genInterval,
		CacheCap:        *cacheCap,
		DrainTimeout:    *drainGrace,
		Metrics:         reg,
		Flight:          flight,
		Tail:            tail,
		TailAll:         *tailAll,
		Calib:           cal,
	})
	if err != nil {
		fatal(err)
	}

	var stopMetrics func() error
	if *metricsAddr != "" {
		mux := http.NewServeMux()
		mux.Handle("/", obs.Handler(reg))
		mux.Handle("/statusz", daemon.StatuszHandler())
		mux.Handle("/statusz/traces", daemon.TracesHandler())
		mbound, stop, err := obs.ServeHandler(*metricsAddr, mux)
		if err != nil {
			fatal(err)
		}
		stopMetrics = stop
		fmt.Printf("hetpland: telemetry on http://%s/metrics (plus /statusz, /debug/vars, /debug/pprof)\n", mbound)
	}

	srv := serve.NewServer(daemon, serve.ServerConfig{IdleTimeout: *idleTimeout})
	bound, err := srv.Listen(*addr)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("hetpland: serving plans on %s (workers %d, queue %d)\n", bound, *workers, *queue)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM, syscall.SIGQUIT)
	for s := range sig {
		if s != syscall.SIGQUIT {
			break
		}
		// SIGQUIT dumps the flight recorder and keeps serving — the
		// classic "what just happened" snapshot for a live daemon.
		if path, ok := flight.Trigger("SIGQUIT"); ok {
			fmt.Printf("hetpland: flight recorder dumped to %s\n", path)
		} else {
			fmt.Println("hetpland: flight recorder dump unavailable (disabled or rate-limited)")
		}
	}
	fmt.Printf("hetpland: draining (grace %v)\n", *drainGrace)
	drainErr := srv.Drain(*drainGrace)
	st := daemon.Snapshot()
	fmt.Printf("hetpland: served %d, shed %d, expired %d, drained %d, coalesced %d, cache hits %d\n",
		st.Served, st.Shed, st.Expired, st.Drained, st.Coalesced, st.CacheHits)
	if stopMetrics != nil {
		if err := stopMetrics(); err != nil {
			fmt.Fprintln(os.Stderr, "hetpland: metrics:", err)
		}
	}
	if drainErr != nil {
		fatal(drainErr)
	}
	fmt.Println("hetpland: stopped")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hetpland:", err)
	os.Exit(1)
}
