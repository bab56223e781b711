package multinet

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"hetsched/internal/model"
	"hetsched/internal/netmodel"
	"hetsched/internal/sched"
)

// The Kim & Lilja cluster flavor: Ethernet is cheap to start but slow;
// ATM starts slower but streams much faster.
var (
	ethernet = netmodel.PairPerf{Latency: 0.001, Bandwidth: netmodel.KbpsToBytesPerSecond(10_000)}
	atm      = netmodel.PairPerf{Latency: 0.020, Bandwidth: netmodel.KbpsToBytesPerSecond(155_000)}
	fibre    = netmodel.PairPerf{Latency: 0.050, Bandwidth: netmodel.KbpsToBytesPerSecond(800_000)}
)

func twoNetPair() Pair {
	return Pair{Options: []Option{
		{Name: "eth", PairPerf: ethernet},
		{Name: "atm", PairPerf: atm},
	}}
}

func TestPBPSCrossover(t *testing.T) {
	p := twoNetPair()
	// Tiny message: Ethernet's 1 ms start-up wins.
	o, _, err := p.PBPS(64)
	if err != nil {
		t.Fatal(err)
	}
	if o.Name != "eth" {
		t.Errorf("small message picked %s", o.Name)
	}
	// Huge message: ATM bandwidth wins.
	o, _, err = p.PBPS(10 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if o.Name != "atm" {
		t.Errorf("large message picked %s", o.Name)
	}
	// The analytic crossover: T_eth + m/B_eth = T_atm + m/B_atm.
	cross := (atm.Latency - ethernet.Latency) / (1/ethernet.Bandwidth - 1/atm.Bandwidth)
	below, _, _ := p.PBPS(int64(cross * 0.9))
	above, _, _ := p.PBPS(int64(cross * 1.1))
	if below.Name != "eth" || above.Name != "atm" {
		t.Errorf("crossover at %g bytes not respected: below=%s above=%s", cross, below.Name, above.Name)
	}
}

func TestPBPSInvalid(t *testing.T) {
	if _, _, err := (Pair{}).PBPS(1); err == nil {
		t.Error("empty network set accepted")
	}
}

func TestAggregateEqualFinish(t *testing.T) {
	p := twoNetPair()
	size := int64(5 << 20)
	tFin, shares, err := p.Aggregate(size)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, sh := range shares {
		total += sh.Bytes
		if sh.Bytes > 0 {
			fin := sh.Latency + float64(sh.Bytes)/sh.Bandwidth
			if math.Abs(fin-tFin) > 1e-3*tFin {
				t.Errorf("%s finishes at %g, shared finish %g", sh.Name, fin, tFin)
			}
		}
	}
	if total != size {
		t.Errorf("shares sum to %d, want %d", total, size)
	}
}

func TestAggregateBeatsPBPSForLargeMessages(t *testing.T) {
	p := Pair{Options: []Option{
		{Name: "eth", PairPerf: ethernet},
		{Name: "atm", PairPerf: atm},
		{Name: "fc", PairPerf: fibre},
	}}
	size := int64(20 << 20)
	_, tP, err := p.PBPS(size)
	if err != nil {
		t.Fatal(err)
	}
	tA, _, err := p.Aggregate(size)
	if err != nil {
		t.Fatal(err)
	}
	if tA >= tP {
		t.Errorf("aggregation (%g) should beat PBPS (%g) on large messages", tA, tP)
	}
}

func TestAggregateSkipsSlowStarters(t *testing.T) {
	// A tiny message should not touch the 50 ms Fibre Channel.
	p := Pair{Options: []Option{
		{Name: "eth", PairPerf: ethernet},
		{Name: "fc", PairPerf: fibre},
	}}
	_, shares, err := p.Aggregate(512)
	if err != nil {
		t.Fatal(err)
	}
	for _, sh := range shares {
		if sh.Name == "fc" && sh.Bytes > 0 {
			t.Errorf("tiny message striped onto fibre channel: %+v", shares)
		}
	}
}

func TestAggregateZeroSize(t *testing.T) {
	p := twoNetPair()
	tFin, shares, err := p.Aggregate(0)
	if err != nil {
		t.Fatal(err)
	}
	if tFin > ethernet.Latency+1e-9 {
		t.Errorf("zero-size aggregate time %g, want the cheapest start-up", tFin)
	}
	var total int64
	for _, sh := range shares {
		total += sh.Bytes
	}
	if total != 0 {
		t.Error("zero-size transfer assigned bytes")
	}
}

func TestAggregateNeverWorseThanPBPS(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var opts []Option
		for k := 0; k < 1+rng.Intn(4); k++ {
			opts = append(opts, Option{
				Name: string(rune('a' + k)),
				PairPerf: netmodel.PairPerf{
					Latency:   rng.Float64() * 0.1,
					Bandwidth: 1e4 + rng.Float64()*1e8,
				},
			})
		}
		p := Pair{Options: opts}
		size := int64(rng.Intn(50 << 20))
		_, tP, err := p.PBPS(size)
		if err != nil {
			return false
		}
		tA, shares, err := p.Aggregate(size)
		if err != nil {
			return false
		}
		var total int64
		for _, sh := range shares {
			if sh.Bytes < 0 {
				return false
			}
			total += sh.Bytes
		}
		return total == size && tA <= tP*(1+1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestAggregateErrors(t *testing.T) {
	if _, _, err := (Pair{}).Aggregate(1); err == nil {
		t.Error("empty set accepted")
	}
	if _, _, err := twoNetPair().Aggregate(-1); err == nil {
		t.Error("negative size accepted")
	}
}

func TestSystemMatrixTechniques(t *testing.T) {
	sys := NewSystem(6)
	if err := sys.AddNetwork("eth", ethernet); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddNetwork("atm", atm); err != nil {
		t.Fatal(err)
	}
	sizes := model.UniformSizes(6, 1<<10) // small messages
	single, err := sys.Matrix(sizes, SingleFastest)
	if err != nil {
		t.Fatal(err)
	}
	pbps, err := sys.Matrix(sizes, UsePBPS)
	if err != nil {
		t.Fatal(err)
	}
	agg, err := sys.Matrix(sizes, UseAggregation)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			if i == j {
				continue
			}
			// SingleFastest always rides ATM (bigger bandwidth), which
			// is a poor choice for 1 kB messages; PBPS must be at least
			// as good, and aggregation at least as good as PBPS.
			if pbps.At(i, j) > single.At(i, j)+1e-12 {
				t.Fatalf("PBPS worse than static choice at (%d,%d)", i, j)
			}
			if agg.At(i, j) > pbps.At(i, j)+1e-12 {
				t.Fatalf("aggregation worse than PBPS at (%d,%d)", i, j)
			}
		}
	}
	// The matrices feed the schedulers unchanged.
	if _, err := sched.NewOpenShop().Schedule(pbps); err != nil {
		t.Fatal(err)
	}
}

func TestSystemErrors(t *testing.T) {
	sys := NewSystem(3)
	if _, err := sys.Matrix(model.UniformSizes(3, 1), UsePBPS); err == nil {
		t.Error("system with no networks accepted")
	}
	if err := sys.AddNetwork("bad", netmodel.PairPerf{Latency: -1, Bandwidth: 1}); err == nil {
		t.Error("invalid network accepted")
	}
	if err := sys.AddNetwork("eth", ethernet); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Matrix(model.UniformSizes(2, 1), UsePBPS); err == nil {
		t.Error("size mismatch accepted")
	}
	if _, err := sys.Matrix(model.UniformSizes(3, 1), Technique(9)); err == nil {
		t.Error("unknown technique accepted")
	}
	if sys.N() != 3 {
		t.Error("N wrong")
	}
}

func TestTechniqueString(t *testing.T) {
	if SingleFastest.String() != "single-fastest" || UsePBPS.String() != "pbps" || UseAggregation.String() != "aggregation" {
		t.Error("technique names wrong")
	}
	if Technique(9).String() == "" {
		t.Error("unknown technique should stringify")
	}
}

func TestAsymmetricPairNetwork(t *testing.T) {
	sys := NewSystem(3)
	if err := sys.AddNetwork("eth", ethernet); err != nil {
		t.Fatal(err)
	}
	// A dedicated fast link one way only.
	sys.pairs[0][2].Options = append(sys.pairs[0][2].Options, Option{Name: "fc", PairPerf: fibre})
	sizes := model.UniformSizes(3, 10<<20)
	m, err := sys.Matrix(sizes, UsePBPS)
	if err != nil {
		t.Fatal(err)
	}
	if m.At(0, 2) >= m.At(2, 0) {
		t.Error("the dedicated link should make 0→2 faster than 2→0")
	}
}
