package obs

import (
	"context"
	"io"
	"testing"
)

// The disabled-telemetry benchmarks pin the cost contract: when a
// registry is nil, or a ctx carries no request trace, every hook must
// degrade to a single pointer check. Compare the Disabled variants against the Enabled
// ones (and against comm's BenchmarkAllToAll pair) to verify
// instrumentation stays out of hot paths.

func BenchmarkCounterIncDisabled(b *testing.B) {
	var c *Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkCounterIncEnabled(b *testing.B) {
	c := New().Counter("bench_total", "")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserveDisabled(b *testing.B) {
	var h *Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(1.25)
	}
}

func BenchmarkHistogramObserveEnabled(b *testing.B) {
	h := New().Histogram("bench_ratio", "", RatioBuckets)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(1.25)
	}
}

func BenchmarkTracerSpanDisabled(b *testing.B) {
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, sp := StartSpan(ctx, "t", "op")
		sp.End()
	}
}

func BenchmarkTracerSpanEnabled(b *testing.B) {
	// A fresh tree per 256 spans keeps every iteration under the cap.
	var ctx context.Context
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%maxReqSpans == 0 {
			ctx = WithReqTrace(context.Background(), NewReqTrace(1, nil))
		}
		_, sp := StartSpan(ctx, "t", "op")
		sp.End()
	}
}

func BenchmarkWritePrometheus(b *testing.B) {
	r := New()
	DeclareStandard(r)
	for i := 0; i < 3; i++ {
		r.Counter(MetricLadderServed, "", L("rung", []string{"fresh", "stale", "degraded"}[i])).Inc()
	}
	r.Histogram(MetricScheduleQuality, "", RatioBuckets, L("algorithm", "openshop")).Observe(1.3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := r.WritePrometheus(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
