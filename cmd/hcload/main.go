// Command hcload replays a storm of concurrent plan-service clients
// against a hetpland daemon and reports what came back: throughput,
// latency percentiles of served requests, and how much of the storm
// was shed, coalesced, cached, or served degraded. Pattern popularity
// is Zipf-distributed, so a hot set of patterns exercises coalescing
// and the plan cache while the long tail forces real planning passes.
//
// Usage:
//
//	hcload -addr 127.0.0.1:7575 -clients 50 -requests 100
//	hcload -selfhost -p 8 -clients 100 -requests 50 -out BENCH_serve.json
//
// With -selfhost, hcload spins an in-process daemon over a random
// table on a loopback port and storms that — the CI benchmark mode,
// needing no external processes.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"hetsched"
	"hetsched/internal/comm"
	"hetsched/internal/directory"
	"hetsched/internal/obs"
	"hetsched/internal/serve"
)

// report is the whole BENCH_serve.json document. The schema string
// versions it; EXPERIMENTS.md documents the fields.
type report struct {
	Schema     string  `json:"schema"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Clients    int     `json:"clients"`
	PerClient  int     `json:"requests_per_client"`
	Patterns   int     `json:"patterns"`
	ZipfS      float64 `json:"zipf_s"`
	P          int     `json:"p"`
	Bytes      int64   `json:"bytes"`
	DeadlineMS int64   `json:"deadline_ms"`
	Selfhost   bool    `json:"selfhost"`

	DurationSec   float64 `json:"duration_sec"`
	ThroughputRPS float64 `json:"throughput_rps"`
	P50MS         float64 `json:"latency_p50_ms"`
	P95MS         float64 `json:"latency_p95_ms"`
	P99MS         float64 `json:"latency_p99_ms"`

	Sent      int `json:"sent"`
	Served    int `json:"served"`
	Shed      int `json:"shed"`
	Expired   int `json:"expired"`
	Drained   int `json:"drained"`
	Coalesced int `json:"coalesced"`
	Cached    int `json:"cached"`
	Degraded  int `json:"degraded"` // served on a non-fresh ladder rung
	Errors    int `json:"errors"`

	// Slowest lists the slowest served requests with their trace IDs —
	// paste a trace ID into the daemon's /statusz (or grep its flight
	// dump and Perfetto export) to see where the time went.
	Slowest []slowReq `json:"slowest,omitempty"`
}

// slowReq is one served request in the latency tail.
type slowReq struct {
	Trace     string  `json:"trace"`
	LatencyMS float64 `json:"latency_ms"`
}

// tally is one client goroutine's private accounting, merged after the
// storm so the hot path takes no locks.
type tally struct {
	served, shed, expired, drained int
	coalesced, cached, degraded    int
	errors                         int
	lat                            []time.Duration
	slow                           []slowReq // served requests with trace IDs
}

func main() {
	var (
		addr       = flag.String("addr", "", "hetpland address to storm")
		selfhost   = flag.Bool("selfhost", false, "spin an in-process daemon and storm it")
		p          = flag.Int("p", 8, "processor count (must match the daemon's table; sets the selfhost table size)")
		clients    = flag.Int("clients", 50, "concurrent client connections")
		requests   = flag.Int("requests", 100, "requests per client")
		patterns   = flag.Int("patterns", 32, "distinct pattern seeds (Zipf universe)")
		zipfS      = flag.Float64("zipf-s", 1.3, "Zipf skew; larger concentrates load on hot patterns")
		bytes      = flag.Int64("bytes", 4096, "base message size of requested patterns")
		deadlineMS = flag.Int64("deadline-ms", 1000, "per-request budget sent to the daemon")
		seed       = flag.Int64("seed", 1, "seed for pattern popularity draws and the selfhost table")
		workers    = flag.Int("selfhost-workers", runtime.GOMAXPROCS(0), "selfhost daemon planning workers")
		queueCap   = flag.Int("selfhost-queue", 32, "selfhost daemon admission queue")
		out        = flag.String("out", "", "write the JSON report to this file (empty = stdout only)")
	)
	flag.Parse()

	target := *addr
	if *selfhost {
		if target != "" {
			fatal(fmt.Errorf("-selfhost and -addr are mutually exclusive"))
		}
		var stop func()
		var err error
		target, stop, err = startSelfhost(*p, *seed, *workers, *queueCap)
		if err != nil {
			fatal(err)
		}
		defer stop()
		fmt.Printf("hcload: selfhost daemon on %s (p=%d, workers=%d, queue=%d)\n",
			target, *p, *workers, *queueCap)
	}
	if target == "" {
		fmt.Fprintln(os.Stderr, "hcload: need -addr or -selfhost")
		os.Exit(1)
	}

	tallies := make([]tally, *clients)
	start := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < *clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			storm(target, g, *requests, *patterns, *zipfS, *p, *bytes, *deadlineMS,
				*seed, &tallies[g])
		}(g)
	}
	wg.Wait()
	wall := time.Since(start)

	var total tally
	for i := range tallies {
		tl := &tallies[i]
		total.served += tl.served
		total.shed += tl.shed
		total.expired += tl.expired
		total.drained += tl.drained
		total.coalesced += tl.coalesced
		total.cached += tl.cached
		total.degraded += tl.degraded
		total.errors += tl.errors
		total.lat = append(total.lat, tl.lat...)
		total.slow = append(total.slow, tl.slow...)
	}
	sort.Slice(total.slow, func(i, j int) bool { return total.slow[i].LatencyMS > total.slow[j].LatencyMS })
	if len(total.slow) > 5 {
		total.slow = total.slow[:5]
	}
	sent := *clients * *requests
	rep := report{
		Schema:     "hetsched-bench-serve/v1",
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Clients:    *clients,
		PerClient:  *requests,
		Patterns:   *patterns,
		ZipfS:      *zipfS,
		P:          *p,
		Bytes:      *bytes,
		DeadlineMS: *deadlineMS,
		Selfhost:   *selfhost,

		DurationSec:   wall.Seconds(),
		ThroughputRPS: float64(sent) / wall.Seconds(),
		P50MS:         ms(percentile(total.lat, 50)),
		P95MS:         ms(percentile(total.lat, 95)),
		P99MS:         ms(percentile(total.lat, 99)),

		Sent:      sent,
		Served:    total.served,
		Shed:      total.shed,
		Expired:   total.expired,
		Drained:   total.drained,
		Coalesced: total.coalesced,
		Cached:    total.cached,
		Degraded:  total.degraded,
		Errors:    total.errors,
		Slowest:   total.slow,
	}
	fmt.Printf("hcload: %d requests in %.2fs (%.0f req/s): served %d (coalesced %d, cached %d, non-fresh %d), shed %d, expired %d, drained %d, errors %d\n",
		sent, rep.DurationSec, rep.ThroughputRPS, rep.Served, rep.Coalesced, rep.Cached,
		rep.Degraded, rep.Shed, rep.Expired, rep.Drained, rep.Errors)
	fmt.Printf("hcload: served latency p50 %.2fms p95 %.2fms p99 %.2fms\n",
		rep.P50MS, rep.P95MS, rep.P99MS)
	for _, s := range rep.Slowest {
		fmt.Printf("hcload: slowest: trace %s %.2fms\n", s.Trace, s.LatencyMS)
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	if *out != "" {
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("hcload: report written to %s\n", *out)
	} else {
		fmt.Println(string(data))
	}
	if rep.Errors > 0 {
		os.Exit(1)
	}
}

// storm runs one client connection's request loop. Pattern seeds are
// drawn from a per-client Zipf so every run with the same flags
// replays the same storm shape.
func storm(target string, g, requests, patterns int, zipfS float64, p int,
	bytes, deadlineMS, seed int64, tl *tally) {
	rng := rand.New(rand.NewSource(seed + int64(g)*7919))
	zipf := rand.NewZipf(rng, zipfS, 1, uint64(patterns-1))
	cl, err := serve.Dial(context.Background(), target, 5*time.Second)
	if err != nil {
		tl.errors += requests
		return
	}
	defer cl.Close()
	for k := 0; k < requests; k++ {
		req := directory.PlanRequest{
			ID:         uint64(g*requests + k),
			P:          p,
			Kind:       directory.PatternRandom,
			Bytes:      bytes,
			Seed:       int64(zipf.Uint64()),
			DeadlineMS: deadlineMS,
		}
		// Every request gets its own trace ID: the daemon echoes it on
		// the response, tags its flight events and exemplars with it,
		// and (when tail sampling is armed) records a span tree under it.
		ctx := obs.WithTrace(context.Background(),
			obs.TraceContext{TraceID: obs.NewTraceID()})
		t0 := time.Now()
		resp, err := cl.Plan(ctx, req)
		if err != nil {
			tl.errors++
			return // connection is gone; remaining requests were never sent
		}
		switch resp.Status {
		case directory.PlanServed:
			tl.served++
			d := time.Since(t0)
			tl.lat = append(tl.lat, d)
			tl.slow = append(tl.slow, slowReq{Trace: resp.Trace, LatencyMS: ms(d)})
			if resp.Coalesced {
				tl.coalesced++
			}
			if resp.Cached {
				tl.cached++
			}
			if resp.Health != "" && resp.Health != "ok" {
				tl.degraded++
			}
		case directory.PlanShed:
			tl.shed++
		case directory.PlanExpired:
			tl.expired++
		case directory.PlanDraining:
			tl.drained++
		default:
			tl.errors++
		}
	}
}

// startSelfhost builds an in-process daemon over a seeded random table
// and returns its loopback address and a teardown function.
func startSelfhost(p int, seed int64, workers, queueCap int) (string, func(), error) {
	perf := hetsched.RandomPerf(rand.New(rand.NewSource(seed)), p, hetsched.GustoGuided())
	c, err := comm.New(p, comm.StaticSource(perf), comm.Config{})
	if err != nil {
		return "", nil, err
	}
	daemon, err := serve.NewDaemon(c, nil, serve.Config{Workers: workers, Queue: queueCap})
	if err != nil {
		return "", nil, err
	}
	srv := serve.NewServer(daemon, serve.ServerConfig{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	return addr, func() {
		if err := srv.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "hcload: selfhost close:", err)
		}
	}, nil
}

// percentile returns the q-th percentile (nearest-rank) of ds.
func percentile(ds []time.Duration, q int) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := make([]time.Duration, len(ds))
	copy(s, ds)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	k := (q*len(s) + 99) / 100
	if k < 1 {
		k = 1
	}
	return s[k-1]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hcload:", err)
	os.Exit(1)
}
