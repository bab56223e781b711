package comm

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"hetsched/internal/calib"
	"hetsched/internal/exec"
	"hetsched/internal/faults"
	"hetsched/internal/model"
	"hetsched/internal/netmodel"
)

// These are the closed-loop chaos proofs: the network the transport
// emulates drifts away from the static directory table, and the
// communicator with a calibrator attached must (a) out-execute the
// static-table communicator on measured wall clock once it has learned
// the drift, and (b) keep its model within bounds of the truth while
// one pair actively lies through stalls and retries.

func flatPerf(n int, lat, bw float64) *netmodel.Perf {
	p := netmodel.NewPerf(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				p.Set(i, j, netmodel.PairPerf{Latency: lat, Bandwidth: bw})
			}
		}
	}
	return p
}

// chaosExchange runs one full exchange over a fresh in-memory
// transport whose accept side is throttled by wrap, and returns the
// executor's report.
func chaosExchange(t *testing.T, c *Communicator, n int, sizes *model.Sizes, wrap func(src, dst int, conn net.Conn) net.Conn, ecfg exec.Config) *exec.DeliveryReport {
	t.Helper()
	tr, err := exec.NewMem(n)
	if err != nil {
		t.Fatal(err)
	}
	tr.SetPairWrapper(wrap)
	rep, _, err := c.ExecuteCtx(context.Background(), tr, sizes, ecfg)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestCalibChaosDrift injects bandwidth drift the static table knows
// nothing about and proves the calibrated communicator beats the
// static one on executed wall clock. The mechanism under test is the
// executor's per-attempt deadline (Slack x modeled seconds): a static
// plan models drifted transfers several times too fast, so attempts
// time out, burn retries, and eventually declare live nodes dead,
// while the calibrated plan models the truth and completes on the
// first attempt.
func TestCalibChaosDrift(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test skipped in -short mode")
	}
	const (
		n    = 6
		lat  = 1e-3
		bw   = 2e6
		size = 32768 // nominal emulated transfer: ~17.4ms
	)
	base := flatPerf(n, lat, bw)
	sizes := model.UniformSizes(n, size)

	// Four pairs, each on a different sender, drift 5-6x slower than
	// the table by the end of warmup: two immediate steps, one ramp,
	// one delayed step. The drifted truth holds still during the
	// measured phase so both communicators face identical conditions.
	drifter, err := faults.NewDrifter(base, []faults.DriftEvent{
		{Src: 0, Dst: 1, Kind: faults.DriftStep, Start: 0, Factor: 1.0 / 6},
		{Src: 2, Dst: 3, Kind: faults.DriftRamp, Start: 0, Duration: 3, Factor: 1.0 / 5},
		{Src: 4, Dst: 5, Kind: faults.DriftStep, Start: 0, Factor: 1.0 / 6},
		{Src: 3, Dst: 0, Kind: faults.DriftStep, Start: 2, Factor: 1.0 / 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	injector, err := faults.NewPairDelayInjector(faults.PairDelayConfig{Lookup: drifter.Lookup})
	if err != nil {
		t.Fatal(err)
	}

	cal, err := calib.New(base, calib.Config{})
	if err != nil {
		t.Fatal(err)
	}
	calibrated := newComm(t, base, Config{Calibrator: cal})
	static := newComm(t, base, Config{})

	// Warmup: generous deadlines so even badly mispredicted transfers
	// complete cleanly on the first attempt and feed the calibrator
	// honest samples. The drifter advances one tick per exchange.
	warmECfg := exec.Config{Slack: 40, MinDeadline: 2 * time.Second, Seed: 1}
	for i := 0; i < 8; i++ {
		rep := chaosExchange(t, calibrated, n, sizes, injector.WrapPair, warmECfg)
		if !rep.Accounted() || rep.AbandonedBytes != 0 {
			t.Fatalf("warmup exchange %d lost bytes: %s", i, rep)
		}
		drifter.Advance()
	}

	// The calibrator must now trust every drifted pair and model its
	// transfer time in the right regime — between half the truth
	// (prior shrinkage pulls estimates toward the table) and a modest
	// overshoot.
	for _, pr := range [][2]int{{0, 1}, {2, 3}, {4, 5}, {3, 0}} {
		est := cal.Pair(pr[0], pr[1])
		if !est.Trusted {
			t.Fatalf("pair %d->%d not trusted after warmup: %+v", pr[0], pr[1], est)
		}
		truth := drifter.Lookup(pr[0], pr[1]).TransferTime(size)
		got := est.Perf.TransferTime(size)
		if got < 0.5*truth || got > 1.3*truth {
			t.Errorf("pair %d->%d modeled %.1fms, truth %.1fms: outside [0.5, 1.3] x truth",
				pr[0], pr[1], got*1e3, truth*1e3)
		}
	}

	// Measured phase: tight deadlines (default Slack 4). The static
	// table models drifted transfers at ~17ms so their deadline is
	// ~70ms, but the truth is 87-104ms: every attempt times out.
	measECfg := exec.Config{MinDeadline: 5 * time.Millisecond, Seed: 1}
	const exchanges = 5
	var calibWall, staticWall time.Duration
	var staticSuffered bool
	for i := 0; i < exchanges; i++ {
		rep := chaosExchange(t, calibrated, n, sizes, injector.WrapPair, measECfg)
		if !rep.Accounted() {
			t.Fatalf("calibrated exchange %d not accounted: %s", i, rep)
		}
		if rep.AbandonedBytes != 0 || len(rep.Dead) != 0 {
			t.Errorf("calibrated exchange %d under known drift lost bytes or declared deaths: %s", i, rep)
		}
		calibWall += rep.Wall

		srep := chaosExchange(t, static, n, sizes, injector.WrapPair, measECfg)
		if !srep.Accounted() {
			t.Fatalf("static exchange %d not accounted: %s", i, srep)
		}
		if srep.Retries > 0 || len(srep.Dead) > 0 {
			staticSuffered = true
		}
		staticWall += srep.Wall
	}
	if !staticSuffered {
		t.Error("static communicator never retried or declared a death: drift injection is not biting")
	}
	if staticWall < calibWall*5/4 {
		t.Errorf("calibrated planning did not beat static under drift: calibrated %v, static %v",
			calibWall, staticWall)
	}
	if st := calibrated.Stats(); st.CalibBatches == 0 {
		t.Errorf("calibrator never fed: %+v", st)
	}
}

// stallConn delays the first read on a connection — a receiver-side
// stall that inflates the sender's measured transfer time (under
// generous deadlines) or blows its attempt deadline (under tight
// ones).
type stallConn struct {
	net.Conn
	d    time.Duration
	once sync.Once
}

func (s *stallConn) Read(p []byte) (int, error) {
	s.once.Do(func() { time.Sleep(s.d) })
	return s.Conn.Read(p)
}

// TestCalibChaosLyingLink points a poisoning attack at one pair: its
// transfers intermittently stall ~9x past the truth. Under generous
// deadlines the stalled transfers complete and report garbage timings
// (a lying link); under tight deadlines they time out and report
// retries. Either way the calibrated model for the pair must stay
// within bounds of the truth — the MAD gate rejects the accepted-but-
// absurd samples and the structural gate rejects the retried ones.
func TestCalibChaosLyingLink(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test skipped in -short mode")
	}
	const (
		n     = 4
		lat   = 1e-3
		bw    = 2e6
		size  = 32768
		stall = 150 * time.Millisecond // ~9x the honest ~17.4ms transfer
	)
	base := flatPerf(n, lat, bw)
	sizes := model.UniformSizes(n, size)
	truth := base.At(0, 1).TransferTime(size)

	injector, err := faults.NewPairDelayInjector(faults.PairDelayConfig{
		Lookup: func(src, dst int) netmodel.PairPerf { return base.At(src, dst) },
	})
	if err != nil {
		t.Fatal(err)
	}

	// poisonMode is set per exchange: "clean" passes the pair through,
	// "lie" stalls every connection on (0,1) without blowing generous
	// deadlines, "retry" stalls only the first attempt so tight
	// deadlines force exactly one retry per exchange.
	var mu sync.Mutex
	poisonMode := "clean"
	pairConns := 0
	wrap := func(src, dst int, c net.Conn) net.Conn {
		c = injector.WrapPair(src, dst, c)
		if src != 0 || dst != 1 {
			return c
		}
		mu.Lock()
		mode := poisonMode
		k := pairConns
		pairConns++
		mu.Unlock()
		if mode == "lie" || (mode == "retry" && k == 0) {
			return &stallConn{Conn: c, d: stall}
		}
		return c
	}
	setMode := func(m string) {
		mu.Lock()
		poisonMode = m
		pairConns = 0
		mu.Unlock()
	}

	cal, err := calib.New(base, calib.Config{})
	if err != nil {
		t.Fatal(err)
	}
	c := newComm(t, base, Config{Calibrator: cal})
	genECfg := exec.Config{Slack: 40, MinDeadline: 2 * time.Second, Seed: 1}

	// Phase 1: five clean exchanges arm the MAD gate with honest
	// residuals for every pair.
	for i := 0; i < 5; i++ {
		setMode("clean")
		if rep := chaosExchange(t, c, n, sizes, wrap, genECfg); !rep.Accounted() || rep.AbandonedBytes != 0 {
			t.Fatalf("clean exchange %d lost bytes: %s", i, rep)
		}
	}
	beforeAttack := cal.Pair(0, 1)

	// Phase 2: the link lies — every third exchange its transfer takes
	// ~9x the truth but still completes and gets measured. The MAD
	// gate must reject every lie.
	for i := 0; i < 9; i++ {
		if i%3 == 2 {
			setMode("lie")
		} else {
			setMode("clean")
		}
		if rep := chaosExchange(t, c, n, sizes, wrap, genECfg); !rep.Accounted() || rep.AbandonedBytes != 0 {
			t.Fatalf("lying-phase exchange %d lost bytes: %s", i, rep)
		}
	}
	afterLies := cal.Pair(0, 1)
	if afterLies.Rejected < beforeAttack.Rejected+3 {
		t.Errorf("MAD gate rejected %d samples during the attack, want >= 3 (pair: %+v)",
			afterLies.Rejected-beforeAttack.Rejected, afterLies)
	}

	// Phase 3: tight deadlines turn the stall into a timeout — every
	// poisoned transfer retries once, and the retried samples must be
	// rejected structurally. Six straight poisoned exchanges bleed the
	// pair's goodness until its confidence falls through the trust
	// threshold.
	tightECfg := exec.Config{MinDeadline: 5 * time.Millisecond, Seed: 1}
	for i := 0; i < 6; i++ {
		setMode("retry")
		rep := chaosExchange(t, c, n, sizes, wrap, tightECfg)
		if !rep.Accounted() {
			t.Fatalf("retry-phase exchange %d not accounted: %s", i, rep)
		}
		if rep.Retries == 0 {
			t.Errorf("retry-phase exchange %d saw no retries: the stall is not tripping the deadline", i)
		}
	}
	final := cal.Pair(0, 1)
	if final.Rejected < afterLies.Rejected+6 {
		t.Errorf("retried samples not rejected structurally: %+v after %+v", final, afterLies)
	}

	// The sustained attack must cost the pair its trust — and with
	// trust gone, planning falls back to the static table for it.
	if final.Trusted {
		t.Errorf("poisoned pair still trusted after sustained attack: %+v", final)
	}
	if applied := cal.Apply(base); applied.At(0, 1) != base.At(0, 1) {
		t.Errorf("distrusted pair still overlaid: %+v, want static %+v", applied.At(0, 1), base.At(0, 1))
	}

	// The verdict: despite 6+ poisoned exchanges the pair's model must
	// still sit within bounds of the truth, nowhere near the lie.
	got := final.Perf.TransferTime(size)
	lie := truth + stall.Seconds()
	if got < 0.5*truth || got > 2*truth {
		t.Errorf("poisoned pair modeled %.1fms, truth %.1fms: outside [0.5, 2] x truth", got*1e3, truth*1e3)
	}
	if got > lie/3 {
		t.Errorf("poisoned pair modeled %.1fms — dragged toward the %.1fms lie", got*1e3, lie*1e3)
	}
	// And an honest pair converges as usual.
	healthy := cal.Pair(2, 3)
	if !healthy.Trusted {
		t.Errorf("healthy pair not trusted: %+v", healthy)
	}
	if ht := healthy.Perf.TransferTime(size); ht < 0.6*truth || ht > 1.5*truth {
		t.Errorf("healthy pair modeled %.1fms, truth %.1fms", ht*1e3, truth*1e3)
	}
}
