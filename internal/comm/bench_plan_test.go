package comm

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"hetsched/internal/model"
	"hetsched/internal/netmodel"
	"hetsched/internal/sched"
)

// The planning micro-benchmarks (EXPERIMENTS.md X14): a cold
// from-scratch plan, the steady-state warm replan that the zero-alloc
// tests pin, and replanning over a drifting network where incremental
// repairs and recomputes mix. Run with
//
//	go test -bench 'ColdPlan|WarmReplan|RepairDrift' -benchmem ./internal/comm/
//
// b.ReportAllocs on the warm path makes any allocation regression
// visible in ordinary benchmark output, not just in the alloc tests.

// benchPerf builds a deterministic asymmetric performance table.
// Asymmetric tables are tie-free, which keeps the warm-start
// certificate on its hit path (symmetric tables hold exactly tied
// matchings the certificate refuses to predict).
func benchPerf(p int) *netmodel.Perf {
	rng := rand.New(rand.NewSource(int64(p) * 9176))
	cfg := netmodel.GustoGuided()
	cfg.Symmetric = false
	return netmodel.RandomPerf(rng, p, cfg)
}

func benchComm(b *testing.B, p int, src func() (*netmodel.Perf, error)) *Communicator {
	b.Helper()
	t0 := time.Unix(0, 0)
	c, err := New(p, src, Config{Clock: func() time.Time { return t0 }})
	if err != nil {
		b.Fatal(err)
	}
	return c
}

var benchPs = []int{8, 16, 50}

// BenchmarkColdPlan measures a from-scratch matching decomposition —
// the cost a repeated exchange pays on a cache miss.
func BenchmarkColdPlan(b *testing.B) {
	for _, p := range benchPs {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			perf := benchPerf(p)
			m, err := model.Build(perf, model.UniformSizes(p, 1<<16))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := (sched.MaxMatching{}).Schedule(m); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWarmReplan measures the steady-state repeated exchange
// through AllToAllRepeatedScratch — snapshot, model rebuild, cache
// recognition, render. This is the path TestRepeatedScratchZeroAlloc
// requires to be allocation-free.
func BenchmarkWarmReplan(b *testing.B) {
	for _, p := range benchPs {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			perf := benchPerf(p)
			c := benchComm(b, p, func() (*netmodel.Perf, error) { return perf, nil })
			sizes := model.UniformSizes(p, 1<<16)
			var sc PlanScratch
			if _, err := c.AllToAllRepeatedScratch(sizes, &sc); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.AllToAllRepeatedScratch(sizes, &sc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRepairDrift measures repeated exchanges over a drifting
// network: consecutive tables differ on about p/4 pairs, so most
// rounds take the incremental-repair path with the cycle's wrap-around
// transition forcing the occasional recompute.
func BenchmarkRepairDrift(b *testing.B) {
	for _, p := range benchPs {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			rng := rand.New(rand.NewSource(int64(p) * 9176))
			perfs := make([]*netmodel.Perf, 8)
			perfs[0] = benchPerf(p)
			for k := 1; k < len(perfs); k++ {
				next := perfs[k-1].Clone()
				for t := 0; t < p/4+1; t++ {
					i, j := rng.Intn(p), rng.Intn(p)
					if i == j {
						continue
					}
					pp := next.At(i, j)
					if t%2 == 0 {
						pp.Bandwidth *= 1.3
					} else {
						pp.Bandwidth *= 0.77
					}
					next.Set(i, j, pp)
				}
				perfs[k] = next
			}
			idx := 0
			c := benchComm(b, p, func() (*netmodel.Perf, error) {
				idx++
				return perfs[idx%len(perfs)], nil
			})
			sizes := model.UniformSizes(p, 1<<16)
			var sc PlanScratch
			if _, err := c.AllToAllRepeatedScratch(sizes, &sc); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.AllToAllRepeatedScratch(sizes, &sc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
