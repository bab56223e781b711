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

// The planning micro-benchmarks (EXPERIMENTS.md X14): a cold open-shop
// plan, the unchanged repeated round that the zero-alloc test pins, and
// repeated rounds over a drifting network, each of which plans cold.
// Run with
//
//	go test -bench 'ColdPlan|WarmReplan|RepeatedDrift' -benchmem ./internal/comm/
//
// b.ReportAllocs on the unchanged round makes any allocation regression
// visible in ordinary benchmark output, not just in the alloc test.

// benchPerf builds a deterministic asymmetric performance table.
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

// BenchmarkColdPlan measures a cold open-shop plan — the cost a
// repeated exchange pays on a round whose matrix changed.
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
				if _, err := sched.NewOpenShop().Schedule(m); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWarmReplan measures the unchanged repeated round through
// AllToAllRepeatedScratch — snapshot, model rebuild, memo recognition,
// result assembly. This is the path TestRepeatedScratchZeroAlloc
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

// BenchmarkRepeatedDrift measures repeated exchanges over a drifting
// network: consecutive tables differ on about p/4 pairs, so every round
// misses the memo and plans cold, paying the model build, the matrix
// comparison and the memo install on top of BenchmarkColdPlan.
func BenchmarkRepeatedDrift(b *testing.B) {
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
