// Command hcdird runs the directory service daemon: a TCP server
// speaking the JSON-line protocol that publishes pairwise network
// performance, modelled on the Globus Metacomputing Directory Service.
// It can serve the static GUSTO tables, a random GUSTO-guided table,
// or either with a synthetic load model that drifts bandwidths over
// time, for exercising adaptive scheduling against a live directory.
//
// Usage:
//
//	hcdird -addr 127.0.0.1:7474 -gusto
//	hcdird -addr 127.0.0.1:7474 -random -p 16 -drift 100ms
//	hcdird -gusto -idle-timeout 2m                  # shed dead clients
//	hcdird -gusto -chaos-drop 0.05 -chaos-tear 0.05 # fault-injected server
//	hcdird -gusto -metrics-addr 127.0.0.1:9090      # Prometheus /metrics + pprof
//	hcdird -gusto -calibrate                        # fit raw calibration samples server-side
package main

import (
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"syscall"
	"time"

	"hetsched/internal/calib"
	"hetsched/internal/directory"
	"hetsched/internal/faults"
	"hetsched/internal/netmodel"
	"hetsched/internal/obs"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:7474", "listen address")
		gusto       = flag.Bool("gusto", false, "serve the GUSTO tables (Tables 1 and 2)")
		random      = flag.Bool("random", false, "serve a GUSTO-guided random table")
		p           = flag.Int("p", 10, "processors for -random")
		seed        = flag.Int64("seed", 1, "seed for -random, -drift, and -chaos faults")
		drift       = flag.Duration("drift", 0, "if > 0, drift bandwidths at this interval")
		load        = flag.String("load", "", "load initial state from a JSON file")
		save        = flag.String("save", "", "save final state to a JSON file on shutdown")
		idleTimeout = flag.Duration("idle-timeout", 0, "drop connections idle longer than this (0 = never)")
		drainGrace  = flag.Duration("drain-grace", 2*time.Second, "on SIGINT/SIGTERM, keep serving connected clients this long before closing")
		chaosDrop   = flag.Float64("chaos-drop", 0, "per-op probability of severing a connection (chaos testing)")
		chaosStall  = flag.Duration("chaos-stall", 0, "if > 0, stall 10% of ops this long (chaos testing)")
		chaosTear   = flag.Float64("chaos-tear", 0, "per-write probability of a torn partial write (chaos testing)")
		metricsAddr = flag.String("metrics-addr", "", "serve Prometheus /metrics, /debug/vars, and /debug/pprof on this address (empty = disabled)")
		calibrate   = flag.Bool("calibrate", false, "run a server-side network calibrator: raw transfer samples sent over the calibrate op are fitted here and trusted estimates applied to the table")
	)
	flag.Parse()

	var perf *netmodel.Perf
	var names []string
	switch {
	case *load != "":
		data, err := os.ReadFile(*load)
		if err != nil {
			fatal(err)
		}
		perf, names, err = netmodel.UnmarshalPerf(data)
		if err != nil {
			fatal(err)
		}
	case *gusto:
		perf = netmodel.Gusto()
		names = netmodel.GustoSites
	case *random:
		perf = netmodel.RandomPerf(rand.New(rand.NewSource(*seed)), *p, netmodel.GustoGuided())
	default:
		fmt.Fprintln(os.Stderr, "hcdird: pick -gusto, -random, or -load FILE")
		os.Exit(1)
	}

	store, err := directory.NewStore(perf, names)
	if err != nil {
		fatal(err)
	}
	srv := directory.NewServer(store)
	if *idleTimeout > 0 {
		srv.SetIdleTimeout(*idleTimeout)
	}
	var (
		reg         *obs.Registry
		stopMetrics func() error
	)
	if *metricsAddr != "" {
		reg = obs.Default()
		// Declare every standard family up front so scrapers see the
		// full schema (HELP/TYPE) even before any samples exist.
		obs.DeclareStandard(reg)
		srv.SetMetrics(reg)
		mbound, stop, err := obs.Serve(*metricsAddr, reg)
		if err != nil {
			fatal(err)
		}
		stopMetrics = stop
		fmt.Printf("hcdird: telemetry on http://%s/metrics (plus /debug/vars, /debug/pprof)\n", mbound)
	}
	if *calibrate {
		// The server-side calibrator lets thin data planes push raw
		// samples and have the directory do the fitting; its prior is
		// the table the daemon starts from.
		cal, err := calib.New(perf, calib.Config{Metrics: reg})
		if err != nil {
			fatal(err)
		}
		srv.SetCalibrator(cal)
		fmt.Println("hcdird: server-side network calibration armed (calibrate op accepts raw samples)")
	}
	if *chaosDrop > 0 || *chaosStall > 0 || *chaosTear > 0 {
		stallProb := 0.0
		if *chaosStall > 0 {
			stallProb = 0.1
		}
		inj := faults.NewConnInjector(faults.ConnConfig{
			Seed:        *seed + 2,
			DropProb:    *chaosDrop,
			StallProb:   stallProb,
			Stall:       *chaosStall,
			PartialProb: *chaosTear,
		})
		srv.SetConnWrapper(inj.Wrap)
		fmt.Printf("hcdird: CHAOS MODE — drop %.2g, stall %v, tear %.2g (seed %d)\n",
			*chaosDrop, *chaosStall, *chaosTear, *seed+2)
	}
	bound, err := srv.Listen(*addr)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("hcdird: serving %d processors on %s\n", store.N(), bound)
	if *idleTimeout > 0 {
		fmt.Printf("hcdird: dropping connections idle > %v\n", *idleTimeout)
	}

	stop := make(chan struct{})
	feederDone := make(chan error, 1)
	if *drift > 0 {
		feeder := directory.NewFeeder(store, rand.New(rand.NewSource(*seed+1)), netmodel.DefaultDrift())
		go func() { feederDone <- feeder.Run(*drift, stop) }()
		fmt.Printf("hcdird: drifting bandwidths every %v\n", *drift)
	} else {
		feederDone <- nil
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Printf("hcdird: draining (grace %v)\n", *drainGrace)
	if err := shutdown(func() error { return srv.Drain(*drainGrace) }, stop, feederDone, stopMetrics); err != nil {
		fatal(err)
	}
	if *save != "" {
		final, _ := store.Snapshot()
		data, err := netmodel.MarshalPerf(final, store.Names())
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*save, data, 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("hcdird: state saved to %s\n", *save)
	}
	fmt.Println("hcdird: stopped")
}

// shutdown is the daemon's graceful stop, in order: drain the server
// (stop accepting at once, but let clients with requests in flight
// finish their request loops instead of dying mid-frame), then stop the
// feeder and wait for it, then stop the metrics endpoint if one runs.
// Every step runs whatever an earlier one reported; the result joins
// all their errors.
func shutdown(drain func() error, stop chan<- struct{}, feederDone <-chan error, stopMetrics func() error) error {
	errs := []error{drain()}
	close(stop)
	if err := <-feederDone; err != nil {
		errs = append(errs, fmt.Errorf("feeder: %w", err))
	}
	if stopMetrics != nil {
		if err := stopMetrics(); err != nil {
			errs = append(errs, fmt.Errorf("metrics: %w", err))
		}
	}
	return errors.Join(errs...)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hcdird:", err)
	os.Exit(1)
}
