// Package obs is the zero-dependency telemetry layer: a race-safe
// metrics registry (counters, gauges, fixed-bucket histograms) with
// Prometheus text exposition and an opt-in HTTP endpoint, plus span
// trees (ReqTrace) that ride a context.Context and export as Chrome
// trace_event JSON loadable in chrome://tracing and Perfetto.
//
// The design goal is that instrumentation costs nothing when disabled:
// every method on *Registry, *Counter, *Gauge, *Histogram, *ReqTrace
// and *ReqSpan is a no-op on a nil receiver, so instrumented code
// resolves its instruments once (from a possibly-nil registry), a ctx
// without a ReqTrace makes every span call a no-op, and each hot-path
// hook degrades to a single pointer check. The paper's evaluation is
// entirely measurement-driven — timing diagrams (Section 3), t_max/t_lb
// ratios, live GUSTO tables — and this package is how the running
// system emits those same quantities.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one metric or trace dimension, e.g. {"algorithm", "openshop"}.
type Label struct {
	Key   string
	Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Metric type strings used in the registry and the Prometheus TYPE line.
const (
	TypeCounter   = "counter"
	TypeGauge     = "gauge"
	TypeHistogram = "histogram"
)

// Counter is a monotonically increasing count. The zero value is ready
// to use; all methods are no-ops on a nil receiver.
type Counter struct {
	n atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.n.Add(1)
}

// Add adds delta.
func (c *Counter) Add(delta uint64) {
	if c == nil {
		return
	}
	c.n.Add(delta)
}

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.n.Load()
}

// Gauge is an instantaneous float64 value. The zero value is ready to
// use; all methods are no-ops on a nil receiver.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add shifts the value by delta.
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		want := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, want) {
			return
		}
	}
}

// Value returns the current value (0 on a nil receiver).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed buckets (upper bounds,
// ascending; an implicit +Inf bucket catches the rest). All methods
// are no-ops on a nil receiver. Observations are lock-free; a scrape
// concurrent with observations sees each bucket atomically but may see
// sum/count mid-update, which Prometheus semantics tolerate.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; last is +Inf
	sum    atomic.Uint64   // float64 bits
	total  atomic.Uint64

	// Last exemplar: a trace ID attached to a recent observation,
	// emitted OpenMetrics-style so a dashboard histogram links back to
	// the trace that landed in it.
	exMu    sync.Mutex
	exTrace uint64
	exValue float64
	exSet   bool
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.total.Add(1)
	for {
		old := h.sum.Load()
		want := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, want) {
			return
		}
	}
}

// ObserveExemplar records one sample and, when trace is non-zero,
// remembers (trace, v) as the family's latest exemplar.
func (h *Histogram) ObserveExemplar(v float64, trace uint64) {
	if h == nil {
		return
	}
	h.Observe(v)
	if trace == 0 {
		return
	}
	h.exMu.Lock()
	h.exTrace = trace
	h.exValue = v
	h.exSet = true
	h.exMu.Unlock()
}

// Exemplar returns the most recent exemplar (ok=false when none was
// ever recorded or on a nil receiver).
func (h *Histogram) Exemplar() (trace uint64, v float64, ok bool) {
	if h == nil {
		return 0, 0, false
	}
	h.exMu.Lock()
	defer h.exMu.Unlock()
	return h.exTrace, h.exValue, h.exSet
}

// Count returns the number of observations (0 on a nil receiver).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.total.Load()
}

// Sum returns the sum of observed values (0 on a nil receiver).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// DurationBuckets are the default upper bounds, in seconds, for timing
// histograms such as plan time: 10µs to ~10s in roughly 3× steps.
var DurationBuckets = []float64{1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.3, 1, 3, 10}

// RatioBuckets are the default upper bounds for schedule-quality
// (t_max/t_lb) histograms. A perfect schedule observes 1; the
// caterpillar baseline can reach P/2 on adversarial instances.
var RatioBuckets = []float64{1, 1.05, 1.1, 1.2, 1.35, 1.5, 1.75, 2, 2.5, 3, 4, 6, 10, 25}

// family is one metric family: a name, its metadata, and its samples
// keyed by label signature.
type family struct {
	name    string
	help    string
	typ     string
	bounds  []float64 // histogram upper bounds
	samples map[string]any
	labels  map[string][]Label
}

// Registry is a set of metric families. It is safe for concurrent use;
// instrument lookups take a read lock, so resolve instruments once and
// hold on to them in hot paths. All methods are no-ops (returning nil
// instruments) on a nil receiver, which is how telemetry is disabled.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// New creates an empty registry.
func New() *Registry {
	return &Registry{families: map[string]*family{}}
}

var defaultRegistry = New()

// Default returns the process-wide registry the CLIs expose over HTTP.
func Default() *Registry { return defaultRegistry }

// signature serializes labels into a stable sample key (and the body of
// the Prometheus label set). Labels are sorted by key.
func signature(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(a, b int) bool { return ls[a].Key < ls[b].Key })
	var sb strings.Builder
	for i, l := range ls {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(l.Key)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabel(l.Value))
		sb.WriteByte('"')
	}
	return sb.String()
}

// escapeLabel escapes a label value per the Prometheus text format.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// getFamily returns the family, creating it when absent. Caller must
// hold r.mu. A type conflict panics: two call sites disagreeing on what
// a metric name means is a programming error worth failing loudly on.
func (r *Registry) getFamily(name, help, typ string, bounds []float64) *family {
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ, bounds: bounds,
			samples: map[string]any{}, labels: map[string][]Label{}}
		r.families[name] = f
		return f
	}
	if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %q registered as %s, requested as %s", name, f.typ, typ))
	}
	if f.help == "" {
		f.help = help
	}
	if f.bounds == nil {
		f.bounds = bounds
	}
	return f
}

// Counter returns the counter for (name, labels), registering the
// family on first use. Returns nil on a nil registry.
//
//hetvet:coldpath instrument resolution; steady-state callers hold the returned *Counter and Inc it, resolving again only on events like rung transitions
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	sig := signature(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.getFamily(name, help, TypeCounter, nil)
	if c, ok := f.samples[sig]; ok {
		return c.(*Counter)
	}
	c := &Counter{}
	f.samples[sig] = c
	f.labels[sig] = append([]Label(nil), labels...)
	return c
}

// Gauge returns the gauge for (name, labels), registering the family on
// first use. Returns nil on a nil registry.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	sig := signature(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.getFamily(name, help, TypeGauge, nil)
	if g, ok := f.samples[sig]; ok {
		return g.(*Gauge)
	}
	g := &Gauge{}
	f.samples[sig] = g
	f.labels[sig] = append([]Label(nil), labels...)
	return g
}

// Histogram returns the histogram for (name, labels) with the given
// upper bounds (ascending; nil selects DurationBuckets). Bounds are
// fixed per family by the first registration. Returns nil on a nil
// registry.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	if bounds == nil {
		bounds = DurationBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %q bounds not ascending at %d", name, i))
		}
	}
	sig := signature(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.getFamily(name, help, TypeHistogram, bounds)
	if h, ok := f.samples[sig]; ok {
		return h.(*Histogram)
	}
	h := &Histogram{bounds: f.bounds, counts: make([]atomic.Uint64, len(f.bounds)+1)}
	f.samples[sig] = h
	f.labels[sig] = append([]Label(nil), labels...)
	return h
}

// Declare registers family metadata without creating a sample, so the
// family's HELP/TYPE lines appear in scrapes before (or without) any
// instrument touching it. Histogram bounds may be nil. No-op on a nil
// registry.
func (r *Registry) Declare(name, help, typ string, bounds []float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.getFamily(name, help, typ, bounds)
}

// formatValue renders a sample value the way Prometheus expects.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
