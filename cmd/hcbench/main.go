// Command hcbench regenerates the paper's evaluation figures and the
// extension experiments as text tables (or CSV), exactly mapping the
// experiment index in DESIGN.md.
//
//	hcbench -fig 9          # Figure 9: small messages
//	hcbench -fig 10         # Figure 10: large messages
//	hcbench -fig 11         # Figure 11: mixed messages
//	hcbench -fig 12         # Figure 12: 20% servers
//	hcbench -fig example    # the running example (Figures 3-8)
//	hcbench -fig tight      # X1: Theorem 2 tightness family
//	hcbench -fig alpha      # X3: interleaved receives α sweep
//	hcbench -fig incr       # X4: incremental repair vs recompute
//	hcbench -fig ckpt       # X5: checkpoint rescheduling under drift
//	hcbench -fig qos        # X6: deadline scheduling
//	hcbench -fig critical   # X7: critical-resource scheduling
//	hcbench -fig all        # everything above
//	hcbench -fig sweeps -json out.json  # Figures 9-12 as machine-readable JSON
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"hetsched/internal/experiments"
	"hetsched/internal/workload"
)

// jsonFigure is one figure sweep in the -json report: the aggregate
// cells (mean and p95 ratio to the lower bound, mean completion,
// geometric-mean speedup) plus how the sweep itself ran — wall clock,
// schedules planned, and mean ns and allocs per planned schedule so
// engine-cost regressions show up next to the quality numbers. The
// quality cells stay deterministic; the engine-cost fields vary run to
// run like any timing does. EXPERIMENTS.md documents the schema.
type jsonFigure struct {
	Figure      string             `json:"figure"`
	Workload    string             `json:"workload"`
	Trials      int                `json:"trials"`
	Seed        int64              `json:"seed"`
	WallSeconds float64            `json:"wall_clock_seconds"`
	Schedules   int                `json:"schedules_planned"`
	MeanNsOp    float64            `json:"mean_ns_per_schedule"`
	AllocsOp    float64            `json:"allocs_per_schedule"`
	Cells       []experiments.Cell `json:"cells"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "hcbench:", err)
		os.Exit(1)
	}
}

// run parses args and writes the selected figures to stdout.
func run(args []string, stdout io.Writer) error {
	flags := flag.NewFlagSet("hcbench", flag.ExitOnError)
	var (
		fig     = flags.String("fig", "all", "which figure/experiment to run (see -help)")
		trials  = flags.Int("trials", 5, "random instances per data point")
		seed    = flags.Int64("seed", 1998, "base random seed")
		pmax    = flags.Int("pmax", 50, "largest processor count for the figure sweeps")
		csv     = flags.Bool("csv", false, "emit CSV instead of tables (figure sweeps only)")
		jsonOut = flags.String("json", "", "also write figure sweeps as JSON to this file")
		workers = flags.Int("workers", 0, "worker goroutines per experiment (0 = GOMAXPROCS, 1 = sequential); output is identical for any value")
	)
	flags.Parse(args) // ExitOnError: a bad flag exits 2, as the global set did
	experiments.SetDefaultWorkers(*workers)
	var report []jsonFigure

	runFig := func(name string) error {
		switch name {
		case "9", "10", "11", "12":
			kinds := map[string]workload.Kind{
				"9": workload.Small, "10": workload.Large,
				"11": workload.Mixed, "12": workload.Servers,
			}
			cfg := experiments.DefaultConfig(kinds[name])
			cfg.Trials = *trials
			cfg.Seed = *seed
			cfg.Workers = *workers
			var ps []int
			for p := 5; p <= *pmax; p += 5 {
				ps = append(ps, p)
			}
			cfg.Ps = ps
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			start := time.Now()
			res, err := experiments.RunFigure(cfg)
			if err != nil {
				return err
			}
			wall := time.Since(start)
			runtime.ReadMemStats(&ms1)
			fmt.Fprintf(stdout, "=== Figure %s ===\n", name)
			if *csv {
				fmt.Fprint(stdout, res.FormatCSV())
			} else {
				fmt.Fprint(stdout, res.FormatTable())
			}
			if *jsonOut != "" {
				// One schedule per (P, trial, algorithm); the engine-cost
				// ratios below are per planned schedule.
				ops := cfg.Trials * len(cfg.Ps) * len(res.Algorithms)
				fig := jsonFigure{
					Figure:      name,
					Workload:    res.Kind.String(),
					Trials:      cfg.Trials,
					Seed:        cfg.Seed,
					WallSeconds: wall.Seconds(),
					Schedules:   ops,
					Cells:       res.Cells,
				}
				if ops > 0 {
					fig.MeanNsOp = float64(wall.Nanoseconds()) / float64(ops)
					fig.AllocsOp = float64(ms1.Mallocs-ms0.Mallocs) / float64(ops)
				}
				report = append(report, fig)
			}
		case "example":
			out, err := experiments.RunningExample()
			if err != nil {
				return err
			}
			fmt.Fprintln(stdout, "=== Running example (Figures 3-8) ===")
			fmt.Fprint(stdout, out)
		case "tight":
			rs, err := experiments.RunTightness([]int{10, 20, 30, 40, 50})
			if err != nil {
				return err
			}
			fmt.Fprintln(stdout, "=== X1: Theorem 2 tightness ===")
			fmt.Fprint(stdout, experiments.FormatTightness(rs))
		case "alpha":
			rs, err := experiments.RunAlphaSweep(20, *trials, *seed, []float64{0, 0.1, 0.2, 0.3, 0.5, 1.0})
			if err != nil {
				return err
			}
			fmt.Fprintln(stdout, "=== X3: interleaved receives ===")
			fmt.Fprint(stdout, experiments.FormatAlpha(rs))
		case "buffer":
			rs, err := experiments.RunBufferSweep(20, *trials, *seed, []int{1, 2, 4, 8, 16})
			if err != nil {
				return err
			}
			fmt.Fprintln(stdout, "=== X3b: finite receive buffers ===")
			fmt.Fprint(stdout, experiments.FormatBuffer(rs))
		case "incr":
			rs, err := experiments.RunIncremental(20, *trials, *seed, []float64{0.05, 0.1, 0.2, 0.4, 0.8})
			if err != nil {
				return err
			}
			fmt.Fprintln(stdout, "=== X4: incremental repair ===")
			fmt.Fprint(stdout, experiments.FormatIncremental(rs))
		case "ckpt":
			rs, err := experiments.RunCheckpointStudy(16, *trials, *seed)
			if err != nil {
				return err
			}
			fmt.Fprintln(stdout, "=== X5: checkpoint rescheduling ===")
			fmt.Fprint(stdout, experiments.FormatCheckpoint(rs))
		case "qos":
			rs, err := experiments.RunQoSStudy(16, *trials, *seed)
			if err != nil {
				return err
			}
			fmt.Fprintln(stdout, "=== X6: QoS deadlines ===")
			fmt.Fprint(stdout, experiments.FormatQoS(rs))
		case "critical":
			rs, err := experiments.RunCriticalStudy(16, *trials, *seed)
			if err != nil {
				return err
			}
			fmt.Fprintln(stdout, "=== X7: critical resource ===")
			fmt.Fprint(stdout, experiments.FormatCritical(rs))
		case "indirect":
			rs, err := experiments.RunIndirectStudy(16, *trials, *seed, nil)
			if err != nil {
				return err
			}
			fmt.Fprintln(stdout, "=== X12: direct vs combine-and-forward ===")
			fmt.Fprint(stdout, experiments.FormatIndirect(rs))
		case "multinet":
			rs, err := experiments.RunMultinetStudy(16, *trials, *seed)
			if err != nil {
				return err
			}
			fmt.Fprintln(stdout, "=== X11: multiple heterogeneous networks ===")
			fmt.Fprint(stdout, experiments.FormatMultinet(rs))
		case "gap":
			rs, err := experiments.RunOptimalityGap(4, *trials, *seed)
			if err != nil {
				return err
			}
			fmt.Fprintln(stdout, "=== X10: heuristics vs exact optimum ===")
			fmt.Fprint(stdout, experiments.FormatGap(rs, 4))
		case "staging":
			rs, err := experiments.RunStagingStudy(16, 3, 24, *trials, *seed)
			if err != nil {
				return err
			}
			fmt.Fprintln(stdout, "=== X9: data staging (BADD) ===")
			fmt.Fprint(stdout, experiments.FormatStaging(rs))
		default:
			return fmt.Errorf("unknown figure %q", name)
		}
		fmt.Fprintln(stdout)
		return nil
	}

	names := []string{*fig}
	switch *fig {
	case "all":
		names = []string{"example", "9", "10", "11", "12", "tight", "alpha", "buffer", "incr", "ckpt", "qos", "critical", "staging", "gap", "multinet", "indirect"}
	case "sweeps":
		names = []string{"9", "10", "11", "12"}
	}
	for _, name := range names {
		if err := runFig(name); err != nil {
			return err
		}
	}
	if *jsonOut != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonOut, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "json: %d figure sweep(s) written to %s\n", len(report), *jsonOut)
	}
	return nil
}
