// Command hcstat renders a running hetpland daemon's statusz snapshot
// in the terminal: queue depth, in-flight planning, outcome counters,
// rung distribution, cache hit ratio, estimator percentiles, the
// tail sampler's slowest retained traces, and the flight recorder's
// recent events.
//
// Usage:
//
//	hcstat -addr 127.0.0.1:9091                 # one text snapshot
//	hcstat -addr 127.0.0.1:9091 -json           # raw JSON snapshot
//	hcstat -addr 127.0.0.1:9091 -watch 2s       # refresh every 2s
//	hcstat -addr 127.0.0.1:9091 -traces t.json  # save the Perfetto export
//
// -addr is hetpland's telemetry address (-metrics-addr), not its plan
// port: statusz rides the same listener as /metrics. The -traces file
// loads directly into https://ui.perfetto.dev or chrome://tracing.
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"
)

func main() {
	var (
		addr    = flag.String("addr", "127.0.0.1:9091", "hetpland telemetry address (the -metrics-addr value)")
		asJSON  = flag.Bool("json", false, "print the raw JSON snapshot instead of text")
		watch   = flag.Duration("watch", 0, "refresh every interval (0 = one snapshot)")
		traces  = flag.String("traces", "", "also download /statusz/traces (Perfetto JSON) to this file")
		timeout = flag.Duration("timeout", 5*time.Second, "HTTP timeout per fetch")
	)
	flag.Parse()

	client := &http.Client{Timeout: *timeout}
	url := "http://" + *addr + "/statusz"
	if *asJSON {
		url += "?format=json"
	}

	for {
		body, err := fetch(client, url)
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(body)
		if *traces != "" {
			tb, err := fetch(client, "http://"+*addr+"/statusz/traces")
			if err != nil {
				fatal(err)
			}
			if err := os.WriteFile(*traces, tb, 0o644); err != nil {
				fatal(err)
			}
			fmt.Printf("hcstat: Perfetto trace written to %s (load it at https://ui.perfetto.dev)\n", *traces)
		}
		if *watch <= 0 {
			return
		}
		time.Sleep(*watch)
		fmt.Println()
	}
}

// fetch GETs one URL and returns its body, treating non-200 as error.
func fetch(client *http.Client, url string) ([]byte, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s: %s", url, resp.Status, body)
	}
	return body, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hcstat:", err)
	os.Exit(1)
}
