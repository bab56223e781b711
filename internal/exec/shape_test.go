package exec

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"hetsched/internal/leakcheck"
	"hetsched/internal/model"
	"hetsched/internal/sched"
)

// benchProblem is the repo benchmark's exchange-mem shape, planned
// once: 8 nodes, a seeded permutation of 56 log-spaced sizes from
// 1 KiB to 256 KiB (about 2.6 MB), on a matrix of tens to hundreds of
// microseconds of latency plus size over 0.2–2 GB/s.
func benchProblem(tb testing.TB) (*sched.Result, *model.Matrix, *model.Sizes) {
	tb.Helper()
	const n = 8
	rng := rand.New(rand.NewSource(1))
	pairs := n * (n - 1)
	perm := rng.Perm(pairs)
	m, sizes := model.NewMatrix(n), model.NewSizes(n)
	k := 0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			size := int64(math.Round(1024 * math.Pow(256, float64(perm[k])/float64(pairs-1))))
			k++
			sizes.Set(i, j, size)
			m.Set(i, j, 20e-6*math.Pow(10, rng.Float64())+float64(size)/(0.2e9*math.Pow(10, rng.Float64())))
		}
	}
	res, err := sched.NewOpenShop().Schedule(m)
	if err != nil {
		tb.Fatalf("plan: %v", err)
	}
	return res, m, sizes
}

// memExchange runs one planned exchange over a fresh in-memory
// transport and insists every byte arrived in the first round.
func memExchange(tb testing.TB, cfg Config, res *sched.Result, m *model.Matrix, sizes *model.Sizes) {
	tb.Helper()
	tr, err := NewMem(sizes.N())
	if err != nil {
		tb.Fatal(err)
	}
	ex, err := New(tr, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	rep, err := ex.Run(context.Background(), res, m, sizes)
	if err != nil {
		tb.Fatal(err)
	}
	if rep.DeliveredBytes != sizes.TotalBytes() || rep.Rounds != 1 {
		tb.Fatalf("delivered %d of %d bytes in %d rounds", rep.DeliveredBytes, sizes.TotalBytes(), rep.Rounds)
	}
}

// BenchmarkMemExchange is the executor layer alone under the repo
// benchmark's exchange-mem shape: no planning, no communicator.
func BenchmarkMemExchange(b *testing.B) {
	res, m, sizes := benchProblem(b)
	b.ReportAllocs()
	b.SetBytes(sizes.TotalBytes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		memExchange(b, Config{}, res, m, sizes)
	}
}

// TestExecAllocationShape pins what the pooled byte path and the binary
// frame buy: once the pools are warm an exchange allocates a small
// fraction of the bytes it moves, whether or not a Deliver sink is set
// (before the pools, about 3.4 times the payload), and a bounded number
// of objects. With JSON header and ack lines, a handler goroutine per
// connection and deadline timers left to fire, benchProblem's exchange
// made about 2 100 allocations; with the binary frame and ports as
// loops, about 1 250, about 1 120 of them the 56 net.Pipes and their
// deadline timers. Over Mem's own pipe, a transfer costs the pipe and
// usually one wake channel, and the exchange makes about 200.
func TestExecAllocationShape(t *testing.T) {
	if leakcheck.RaceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	res, m, sizes := benchProblem(t)
	for _, tc := range []struct {
		name    string
		deliver DeliverFunc
	}{
		{"no sink", nil},
		{"with sink", func(src, dst int, payload []byte) {}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Deliver: tc.deliver}
			memExchange(t, cfg, res, m, sizes)
			const exchanges = 20
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < exchanges; i++ {
				memExchange(t, cfg, res, m, sizes)
			}
			runtime.ReadMemStats(&after)
			perExchange := float64(after.TotalAlloc-before.TotalAlloc) / exchanges
			if limit := 0.25 * float64(sizes.TotalBytes()); perExchange > limit {
				t.Fatalf("%.0f bytes allocated per exchange of %d payload bytes, want at most %.0f",
					perExchange, sizes.TotalBytes(), limit)
			}
			const mallocLimit = 700
			if allocs := float64(after.Mallocs-before.Mallocs) / exchanges; allocs > mallocLimit {
				t.Fatalf("%.0f allocations per exchange, want at most %d", allocs, mallocLimit)
			}
		})
	}
}

// TestDefaultFillMatchesFormula holds the doubling fill to the
// per-byte formula it replaced, across the first-period boundary and
// a power-of-two size class boundary.
func TestDefaultFillMatchesFormula(t *testing.T) {
	var lengths []int
	for n := 0; n <= 1025; n++ {
		lengths = append(lengths, n)
	}
	lengths = append(lengths, 64<<10-1, 64<<10, 64<<10+1)
	for _, pair := range [][2]int{{0, 0}, {0, 1}, {3, 7}, {7, 3}, {49, 50}, {1000, 12345}} {
		src, dst := pair[0], pair[1]
		for _, n := range lengths {
			got := DefaultPayload(src, dst, int64(n))
			if len(got) != n {
				t.Fatalf("DefaultPayload(%d,%d,%d) has %d bytes", src, dst, n, len(got))
			}
			for i, b := range got {
				if want := byte(7*src + 13*dst + 31*i + 5); b != want {
					t.Fatalf("DefaultPayload(%d,%d,%d)[%d] = %d, want %d", src, dst, n, i, b, want)
				}
			}
		}
	}
}
