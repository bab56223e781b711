package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of the
// samples: the smallest value with at least q of the samples at or
// below it. The slice is sorted in place.
func percentile(samples []time.Duration, q float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	rank := int(math.Ceil(q * float64(len(samples))))
	if rank < 1 {
		rank = 1
	}
	return samples[rank-1]
}

// median returns the middle value (mean of the two middle values for an
// even count) without reordering the input.
func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	mid := len(v) / 2
	if len(v)%2 == 1 {
		return v[mid]
	}
	return (v[mid-1] + v[mid]) / 2
}

func mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}

// roundStats is what one timed round measured.
type roundStats struct {
	ops        int
	wall       time.Duration
	cpu        time.Duration // process user+sys over the round's timed segments
	allocBytes uint64
	mallocs    uint64
	p50, p95   time.Duration
}

// steadyBest is the estimator behind every timing metric: of the
// per-round values, ordered best first, it drops the best and averages
// the next three. Co-tenant noise on a shared host only ever slows a
// round down, so the estimate has to come from the fast end of the
// rounds; but the single best round is too often a lucky outlier (a
// round that dodged every GC cycle), and over ten runs on the builder's
// host it was the least repeatable of the candidates tried — see the
// estimator table in README.md.
func steadyBest(values []float64, higherIsBetter bool) float64 {
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	if higherIsBetter {
		for i, j := 0, len(v)-1; i < j; i, j = i+1, j-1 {
			v[i], v[j] = v[j], v[i]
		}
	}
	if len(v) > 1 {
		v = v[1:]
	}
	if len(v) > 3 {
		v = v[:3]
	}
	return mean(v)
}

// aggregate folds rounds into the end-to-end metrics: steadyBest for
// the timing metrics, the median round for the allocation counts, whose
// noise is not one-sided.
func aggregate(rounds []roundStats) map[string]float64 {
	var rate, p50, p95, cpu, allocKB, allocs []float64
	for _, r := range rounds {
		ops := float64(r.ops)
		rate = append(rate, ops/r.wall.Seconds())
		p50 = append(p50, ms(r.p50))
		p95 = append(p95, ms(r.p95))
		cpu = append(cpu, ms(r.cpu)/ops)
		allocKB = append(allocKB, float64(r.allocBytes)/1024/ops)
		allocs = append(allocs, float64(r.mallocs)/ops)
	}
	return map[string]float64{
		"ops_per_s":       steadyBest(rate, true),
		"lat_p50_ms":      steadyBest(p50, false),
		"lat_p95_ms":      steadyBest(p95, false),
		"cpu_ms_per_op":   steadyBest(cpu, false),
		"alloc_kb_per_op": median(allocKB),
		"allocs_per_op":   median(allocs),
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
