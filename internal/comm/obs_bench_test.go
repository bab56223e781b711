package comm

import (
	"testing"

	"hetsched/internal/model"
	"hetsched/internal/netmodel"
	"hetsched/internal/obs"
)

// benchAllToAll measures a full planning round trip so the telemetry
// overhead is seen in context: the acceptance criterion is that the
// enabled and disabled variants are within noise of each other,
// because planning dwarfs a handful of atomic increments.
func benchAllToAll(b *testing.B, cfg Config) {
	b.Helper()
	c, err := New(5, StaticSource(netmodel.Gusto()), cfg)
	if err != nil {
		b.Fatal(err)
	}
	sizes := model.UniformSizes(5, 1<<20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.AllToAll(sizes); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAllToAllTelemetryDisabled(b *testing.B) {
	benchAllToAll(b, Config{})
}

func BenchmarkAllToAllTelemetryEnabled(b *testing.B) {
	benchAllToAll(b, Config{Metrics: obs.New()})
}
