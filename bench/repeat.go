package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// manifest is BENCHMARK.json, the contract the driver reads.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readManifest(path string) (manifest, error) {
	var m manifest
	data, err := os.ReadFile(path)
	if err != nil {
		return m, err
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return m, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (exclusive method), which is
// what the driver computes.
func quartiles(values []float64) (q1, q3 float64) {
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	n := len(v)
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (v[j-1]*float64(4-delta) + v[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// repeatRuns is the noise protocol: it runs every workload n times in
// fresh processes for the manifest's run_seconds, each time with another
// seed, as the driver does, and
// holds every end-to-end metric to its bound in BENCHMARK.json twice —
// the interquartile spread as a share of the median, and the drift
// between the medians of the even and the odd runs, two interleaved
// sets of the same code. It returns the exit code.
func repeatRuns(n int, seed int64) int {
	man, err := readManifest("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if n < 4 {
		fmt.Fprintln(os.Stderr, "bench: -repeat needs at least 4 runs for two sets with a spread")
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	// values[workload][metric] in run order.
	values := map[string]map[string][]float64{}
	for run := 0; run < n; run++ {
		for _, w := range man.Workloads {
			cmd := exec.Command(self, "-workload", w.Name, "-seed", strconv.FormatInt(seed+int64(run), 10),
				"-seconds", strconv.Itoa(man.RunSeconds), "-trace", "0")
			out, err := cmd.Output()
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: run %d of %s: %v\n", run, w.Name, err)
				return 2
			}
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			var res result
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
				fmt.Fprintf(os.Stderr, "bench: run %d of %s: %v\n", run, w.Name, err)
				return 2
			}
			if !res.Correct || res.Failed > 0 {
				fmt.Fprintf(os.Stderr, "bench: run %d of %s: incorrect (%d of %d failed)\n", run, w.Name, res.Failed, res.Attempted)
				return 1
			}
			if values[w.Name] == nil {
				values[w.Name] = map[string][]float64{}
			}
			for name, mv := range res.Metrics {
				values[w.Name][name] = append(values[w.Name][name], mv.Value)
			}
			fmt.Fprintf(os.Stderr, "bench: run %d/%d %s ok\n", run+1, n, w.Name)
		}
	}
	breaches := 0
	fmt.Printf("%-13s %-16s %12s %12s %12s %8s %8s %7s\n", "workload", "metric", "min", "median", "max", "spread", "drift", "bound")
	for _, w := range man.Workloads {
		for _, em := range man.EndToEnd {
			v := values[w.Name][em.Name]
			q1, q3 := quartiles(v)
			med := median(v)
			spread := (q3 - q1) / med
			var even, odd []float64
			for i, x := range v {
				if i%2 == 0 {
					even = append(even, x)
				} else {
					odd = append(odd, x)
				}
			}
			// drift > 0 means the second set reads worse than the first.
			drift := (median(odd) - median(even)) / median(even)
			if em.Better == "higher" {
				drift = -drift
			}
			sorted := append([]float64(nil), v...)
			sort.Float64s(sorted)
			flag := ""
			if (spread > em.Bound && em.Name != "setup_s") || drift > em.Bound {
				flag = "  BREACH"
				breaches++
			}
			fmt.Printf("%-13s %-16s %12.5g %12.5g %12.5g %7.2f%% %+7.2f%% %6.1f%%%s\n", w.Name, em.Name,
				sorted[0], med, sorted[len(sorted)-1], 100*spread, 100*drift, 100*em.Bound, flag)
		}
	}
	if breaches > 0 {
		fmt.Printf("%d breaches\n", breaches)
		return 1
	}
	return 0
}
