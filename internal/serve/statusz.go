package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"hetsched/internal/directory"
	"hetsched/internal/obs"
)

// The statusz surface: a single coherent snapshot of the daemon's live
// state — queue, in-flight, outcome counters, rung distribution, cache
// hit ratio, estimator percentiles, tail-sampler occupancy, slowest
// retained traces, and the flight-recorder tail — rendered as text for
// humans (hcstat, curl) and JSON for tools. Collection takes the
// daemon lock once, briefly; rendering happens outside all locks.

// statuszFlightTail bounds how many flight-recorder events a snapshot
// embeds.
const statuszFlightTail = 32

// statuszSlowest bounds how many slowest-trace summaries a snapshot
// embeds.
const statuszSlowest = 8

// TraceSummary is one retained span tree, summarized for statusz.
type TraceSummary struct {
	Trace     string  `json:"trace"`
	Outcome   string  `json:"outcome"`
	LatencyMS float64 `json:"latency_ms"`
	Spans     int     `json:"spans"`
}

// Statusz is one self-contained snapshot of the daemon's live state.
// The zero value renders as an empty (but valid) page.
type Statusz struct {
	Draining   bool   `json:"draining"`
	Health     string `json:"health"`
	Workers    int    `json:"workers"`
	QueueDepth int    `json:"queue_depth"`
	QueueCap   int    `json:"queue_cap"`
	InFlight   int    `json:"in_flight"`
	Generation uint64 `json:"generation"`

	Stats directory.ServeStats `json:"stats"`

	// CacheHitRatio is cache hits over admitted requests (0 when
	// nothing was admitted yet).
	CacheHitRatio float64 `json:"cache_hit_ratio"`
	// PlanP95MS / PlanP99MS are the cost estimator's current
	// percentiles over recent planning passes, in milliseconds.
	PlanP95MS float64 `json:"plan_p95_ms"`
	PlanP99MS float64 `json:"plan_p99_ms"`

	// Tail-sampler occupancy; all zero when tail sampling is unarmed.
	TailLen      int    `json:"tail_len,omitempty"`
	TailCap      int    `json:"tail_cap,omitempty"`
	TailRetained uint64 `json:"tail_retained,omitempty"`
	TailDropped  uint64 `json:"tail_dropped,omitempty"`
	TailEvicted  uint64 `json:"tail_evicted,omitempty"`
	// Slowest summarizes the slowest retained traces, slowest first.
	Slowest []TraceSummary `json:"slowest,omitempty"`

	// FlightSeq is the flight recorder's event count since process
	// start; Flight is its most recent tail, oldest first.
	FlightSeq uint64            `json:"flight_seq,omitempty"`
	Flight    []obs.FlightEvent `json:"flight,omitempty"`
}

// Statusz collects a snapshot. A nil daemon reports itself draining
// with degraded health, matching the rest of the fail-closed surface.
func (d *Daemon) Statusz() Statusz {
	if d == nil {
		return Statusz{Draining: true, Health: "degraded"}
	}
	st := Statusz{Health: d.Health().String(), Workers: d.cfg.Workers, QueueCap: d.cfg.Queue}
	d.mu.Lock()
	st.Draining = d.draining
	st.QueueDepth = len(d.tasks)
	st.InFlight = d.inFlight
	st.Generation = d.curGen
	st.Stats = d.stats
	st.PlanP95MS = float64(d.est.p95()) / float64(time.Millisecond)
	st.PlanP99MS = float64(d.est.p99()) / float64(time.Millisecond)
	d.mu.Unlock()
	st.Stats.QueueDepth = st.QueueDepth
	st.Stats.InFlight = st.InFlight
	st.Stats.Draining = st.Draining
	if st.Stats.Admitted > 0 {
		st.CacheHitRatio = float64(st.Stats.CacheHits) / float64(st.Stats.Admitted)
	}
	if tail := d.cfg.Tail; tail != nil {
		st.TailLen = tail.Len()
		st.TailCap = tail.Cap()
		st.TailRetained, st.TailDropped, st.TailEvicted = tail.Stats()
		for _, rt := range tail.Slowest(statuszSlowest) {
			st.Slowest = append(st.Slowest, TraceSummary{
				Trace:     obs.FormatTraceID(rt.TraceID()),
				Outcome:   rt.Outcome(),
				LatencyMS: float64(rt.Latency()) / float64(time.Millisecond),
				Spans:     len(rt.Spans()),
			})
		}
	}
	if fl := d.cfg.Flight; fl != nil {
		st.FlightSeq = fl.Seq()
		st.Flight = fl.Tail(statuszFlightTail)
	}
	return st
}

// RenderText writes the human-readable statusz page. Value receiver:
// a snapshot is plain data, there is no nil case.
func (s Statusz) RenderText(w io.Writer) {
	state := "serving"
	if s.Draining {
		state = "draining"
	}
	fmt.Fprintf(w, "hetpland statusz: %s, health=%s\n", state, s.Health)
	fmt.Fprintf(w, "  queue: %d/%d deep, %d in flight of %d workers, generation %d\n",
		s.QueueDepth, s.QueueCap, s.InFlight, s.Workers, s.Generation)
	fmt.Fprintf(w, "  outcomes: %d admitted, %d served (%d fresh / %d stale / %d degraded), %d shed, %d expired, %d drained, %d rejected\n",
		s.Stats.Admitted, s.Stats.Served, s.Stats.ServedFresh, s.Stats.ServedStale,
		s.Stats.ServedDegraded, s.Stats.Shed, s.Stats.Expired, s.Stats.Drained, s.Stats.Rejected)
	fmt.Fprintf(w, "  planning: %d plans, %d coalesced, %d cache hits (ratio %.3f), p95 %.3fms, p99 %.3fms\n",
		s.Stats.Plans, s.Stats.Coalesced, s.Stats.CacheHits, s.CacheHitRatio,
		s.PlanP95MS, s.PlanP99MS)
	if s.TailCap > 0 {
		fmt.Fprintf(w, "  tail sampler: %d/%d retained (%d kept, %d dropped, %d evicted)\n",
			s.TailLen, s.TailCap, s.TailRetained, s.TailDropped, s.TailEvicted)
		for _, t := range s.Slowest {
			fmt.Fprintf(w, "    trace %s %-8s %10.3fms %3d spans\n",
				t.Trace, t.Outcome, t.LatencyMS, t.Spans)
		}
	}
	if s.FlightSeq > 0 || len(s.Flight) > 0 {
		fmt.Fprintf(w, "  flight recorder: %d events total, last %d:\n", s.FlightSeq, len(s.Flight))
		obs.WriteFlightEvents(w, s.Flight)
	}
}

// StatuszHandler serves the snapshot over HTTP: text by default, JSON
// with ?format=json. Mount it at /statusz.
func (d *Daemon) StatuszHandler() http.Handler {
	if d == nil {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "serve: nil daemon", http.StatusServiceUnavailable)
		})
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		st := d.Statusz()
		if r.URL.Query().Get("format") == "json" {
			w.Header().Set("Content-Type", "application/json")
			if err := json.NewEncoder(w).Encode(st); err != nil {
				return
			}
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		st.RenderText(w)
	})
}

// TracesHandler serves the tail sampler's retained span trees as
// Chrome trace_event JSON — download and load into Perfetto. Mount it
// at /statusz/traces. With no sampler armed it serves a loadable empty
// trace.
func (d *Daemon) TracesHandler() http.Handler {
	if d == nil {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "serve: nil daemon", http.StatusServiceUnavailable)
		})
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := d.cfg.Tail.WritePerfetto(w); err != nil {
			return
		}
	})
}
