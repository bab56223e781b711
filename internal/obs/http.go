package obs

import (
	"errors"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
)

// publishOnce guards the process-wide expvar publication: expvar's
// namespace is global and Publish panics on duplicates.
var publishOnce sync.Once

// Handler returns the telemetry endpoint: Prometheus text at /metrics,
// the expvar JSON dump at /debug/vars (including this registry under
// the "hetsched_metrics" key), and the pprof profiles under
// /debug/pprof/. Everything is mounted on a private mux — nothing
// leaks onto http.DefaultServeMux, keeping the endpoint strictly
// opt-in.
func Handler(r *Registry) http.Handler {
	publishOnce.Do(func() {
		expvar.Publish("hetsched_metrics", expvar.Func(func() any { return r.expvarSnapshot() }))
	})
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w) // a failed write to the scraper has no one to report to
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// expvarSnapshot renders the registry as a nested map for /debug/vars:
// family → "{labels}" (or "" for unlabeled) → value. Histograms report
// count and sum.
func (r *Registry) expvarSnapshot() map[string]any {
	out := map[string]any{}
	if r == nil {
		return out
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for name, f := range r.families {
		samples := map[string]any{}
		for sig, inst := range f.samples {
			switch v := inst.(type) {
			case *Counter:
				samples[sig] = v.Value()
			case *Gauge:
				samples[sig] = v.Value()
			case *Histogram:
				samples[sig] = map[string]any{"count": v.Count(), "sum": v.Sum()}
			}
		}
		out[name] = samples
	}
	return out
}

// Serve exposes Handler(r) on addr; see ServeHandler.
func Serve(addr string, r *Registry) (string, func() error, error) {
	return ServeHandler(addr, Handler(r))
}

// ServeHandler exposes h on addr (e.g. "127.0.0.1:9090" or ":0") in
// the background. It returns the bound address and a shutdown function
// that stops the listener, waits for the serve loop to exit (so no
// goroutine outlives the shutdown), and reports any serve-loop error
// the background goroutine would otherwise have swallowed.
func ServeHandler(addr string, h http.Handler) (string, func() error, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: h}
	var (
		wg       sync.WaitGroup
		serveErr error // written before wg.Done, read after wg.Wait
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			serveErr = err
		}
	}()
	stop := func() error {
		closeErr := srv.Close()
		wg.Wait()
		if serveErr != nil {
			return serveErr
		}
		return closeErr
	}
	return ln.Addr().String(), stop, nil
}
