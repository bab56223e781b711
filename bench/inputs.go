package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"math/rand"

	"hetsched/internal/directory"
	"hetsched/internal/model"
	"hetsched/internal/netmodel"
)

// Every input is a pure function of (-seed, stream, client): the
// streams below keep warm-up, timed and fence sequences apart so the
// five set-ups of a run replay the same warm-up and the timed sequence
// starts from the same point whatever happened before it.
const (
	streamTable = iota + 1
	streamPatterns
	streamWarmup
	streamTimed
	streamDrift
)

func newRNG(seed int64, stream, client int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(stream)*1009 + int64(client)))
}

const (
	serveP      = 50 // the paper's largest experiment
	exchangeP   = 8
	workingSet  = 64 // fixed patterns of serve-hot and serve-live; below the daemon's CacheCap
	patternSize = 1 << 20
	deadlineMS  = 10_000 // the daemon's maximum: a co-tenant stall must not turn into an expired op
)

// gustoTable is the table `hetpland -random` plans against.
func gustoTable(seed int64, p int) *netmodel.Perf {
	return netmodel.RandomPerf(newRNG(seed, streamTable, 0), p, netmodel.GustoGuided())
}

func logUniform(rng *rand.Rand, lo, hi float64) float64 {
	return lo * math.Exp(rng.Float64()*math.Log(hi/lo))
}

// loopbackTable models what a calibrated deployment on one host would
// hold: 20–200 µs latency, 0.2–2 GB/s bandwidth. With it the executor's
// Slack × modeled deadlines sit at MinDeadline, as they would after
// calibration, instead of at the seconds a WAN table would allow.
func loopbackTable(seed int64, p int) *netmodel.Perf {
	rng := newRNG(seed, streamTable, 0)
	perf := netmodel.NewPerf(p)
	for i := 0; i < p; i++ {
		for j := 0; j < p; j++ {
			if i == j {
				perf.Set(i, j, netmodel.PairPerf{Bandwidth: 1e12})
				continue
			}
			perf.Set(i, j, netmodel.PairPerf{
				Latency:   logUniform(rng, 20e-6, 200e-6),
				Bandwidth: logUniform(rng, 0.2e9, 2e9),
			})
		}
	}
	return perf
}

// randomPattern materializes a kind=random spec the way planproto
// documents it: per-pair sizes in [1, bytes] from a generator seeded
// with the spec's seed, row-major over the off-diagonal. It is the
// correctness gate's oracle for what the daemon must have planned.
func randomPattern(p int, bytes, seed int64) *model.Sizes {
	s := model.NewSizes(p)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < p; i++ {
		for j := 0; j < p; j++ {
			if i != j {
				s.Set(i, j, 1+rng.Int63n(bytes))
			}
		}
	}
	return s
}

func randomSpec(seed int64) directory.PlanRequest {
	return directory.PlanRequest{P: serveP, Kind: directory.PatternRandom,
		Bytes: patternSize, Seed: seed, DeadlineMS: deadlineMS}
}

// missSeeds hands out pattern seeds no other (stream, client) ever
// produces, so no request can hit the cache or coalesce.
type missSeeds struct {
	base, stride, next int64
}

func newMissSeeds(seed int64, stream, client, clients int) *missSeeds {
	// Bit 62 keeps these above every livePatternSeeds value; 2^23 draws
	// fit in a stream before two streams could meet.
	base := 1<<62 + newRNG(seed, streamPatterns, 0).Int63n(1<<37)<<24 + int64(stream)<<23
	return &missSeeds{base: base + int64(client), stride: int64(clients)}
}

func (m *missSeeds) draw() int64 {
	s := m.base + m.next*m.stride
	m.next++
	return s
}

// hotTables are serve-hot's explicit 50×50 size tables; entries below
// 2^16 make each request about 14.5 KB of JSON.
func hotTables(seed int64) [][][]int64 {
	rng := newRNG(seed, streamPatterns, 1)
	tables := make([][][]int64, workingSet)
	for k := range tables {
		rows := make([][]int64, serveP)
		for i := range rows {
			rows[i] = make([]int64, serveP)
			for j := range rows[i] {
				if i != j {
					rows[i][j] = 1 + rng.Int63n(1<<16)
				}
			}
		}
		tables[k] = rows
	}
	return tables
}

func sizesOf(rows [][]int64) *model.Sizes {
	s := model.NewSizes(len(rows))
	for i, row := range rows {
		for j, v := range row {
			s.Set(i, j, v)
		}
	}
	return s
}

// zipfDraws picks working-set indices Zipf(s = 1.1): a few hot tables
// and a long tail, all inside the cache.
func zipfDraws(seed int64, stream, client int) func() int {
	z := rand.NewZipf(newRNG(seed, stream, client), 1.1, 1, workingSet-1)
	return func() int { return int(z.Uint64()) }
}

// livePatternSeeds are serve-live's fixed kind=random specs.
func livePatternSeeds(seed int64) []int64 {
	rng := newRNG(seed, streamPatterns, 2)
	seeds := make([]int64, workingSet)
	for k := range seeds {
		seeds[k] = 1 + rng.Int63n(1<<40) // below every missSeeds value, which fences draw from
	}
	return seeds
}

// epochOrder is one client's share of an epoch: every pattern `repeat`
// times, shuffled. The shuffle differs per (client, epoch) so clients
// meet on the same pattern only by chance, as independent callers would.
func epochOrder(rng *rand.Rand, repeat int, into []int) []int {
	into = into[:0]
	for r := 0; r < repeat; r++ {
		for k := 0; k < workingSet; k++ {
			into = append(into, k)
		}
	}
	rng.Shuffle(len(into), func(i, j int) { into[i], into[j] = into[j], into[i] })
	return into
}

// exchangeSizes draws the per-pair byte counts of one exchange: a
// seeded permutation of 56 log-spaced sizes from 1 KiB to 256 KiB.
// Stratifying keeps every exchange at the same total (≈ 2.6 MB) so
// rounds and seeds compare like with like, while which pair gets which
// size — and so the critical path — still varies.
type exchangeSizes struct {
	rng   *rand.Rand
	strat []int64
}

func newExchangeSizes(seed int64, stream, client int) *exchangeSizes {
	n := exchangeP * (exchangeP - 1)
	strat := make([]int64, n)
	for k := range strat {
		strat[k] = int64(math.Round(1024 * math.Pow(256, float64(k)/float64(n-1))))
	}
	return &exchangeSizes{rng: newRNG(seed, stream, client), strat: strat}
}

func (g *exchangeSizes) draw() *model.Sizes {
	perm := g.rng.Perm(len(g.strat))
	s := model.NewSizes(exchangeP)
	k := 0
	for i := 0; i < exchangeP; i++ {
		for j := 0; j < exchangeP; j++ {
			if i != j {
				s.Set(i, j, g.strat[perm[k]])
				k++
			}
		}
	}
	return s
}

// inputHash fingerprints generated inputs so two runs with one -seed
// can be shown to have sent the same requests.
type inputHash struct{ h hash.Hash }

func newInputHash() *inputHash { return &inputHash{h: sha256.New()} }

func (ih *inputHash) u64(v uint64) {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	ih.h.Write(b[:])
}

func (ih *inputHash) perf(p *netmodel.Perf) {
	for i := 0; i < p.N(); i++ {
		for j := 0; j < p.N(); j++ {
			pp := p.At(i, j)
			ih.u64(math.Float64bits(pp.Latency))
			ih.u64(math.Float64bits(pp.Bandwidth))
		}
	}
}

func (ih *inputHash) sizes(s *model.Sizes) {
	for i := 0; i < s.N(); i++ {
		for j := 0; j < s.N(); j++ {
			ih.u64(uint64(s.At(i, j)))
		}
	}
}

func (ih *inputHash) sum() string { return hex.EncodeToString(ih.h.Sum(nil))[:16] }

// hashedDraws is how many draws of each client's timed sequence the
// fingerprint covers; the sequence itself is as long as the run.
const hashedDraws = 1024
