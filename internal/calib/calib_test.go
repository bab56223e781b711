package calib

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"hetsched/internal/netmodel"
)

// uniformPerf builds an n×n table with one latency/bandwidth everywhere
// off-diagonal.
func uniformPerf(n int, lat, bw float64) *netmodel.Perf {
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

// sampleBatch measures every off-diagonal pair once against truth, with
// multiplicative noise from rng (±amp) and sizes in [minB, maxB].
func sampleBatch(truth *netmodel.Perf, rng *rand.Rand, amp float64, minB, maxB int64) []Sample {
	n := truth.N()
	var out []Sample
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			size := minB + rng.Int63n(maxB-minB+1)
			noise := 1 + amp*(2*rng.Float64()-1)
			out = append(out, Sample{
				Src: i, Dst: j, Bytes: size,
				Seconds: truth.TransferTime(i, j, size) * noise,
				Outcome: OutcomeDelivered,
			})
		}
	}
	return out
}

func mustNew(t *testing.T, prior *netmodel.Perf, cfg Config) *Calibrator {
	t.Helper()
	c, err := New(prior, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return c
}

// relErr is the relative error of got against want.
func relErr(got, want float64) float64 {
	return math.Abs(got-want) / math.Abs(want)
}

// TestCalibratorConvergesUnderDrift feeds clean samples from a drifted
// truth and checks the trusted estimates land near the truth, far from
// the stale prior.
func TestCalibratorConvergesUnderDrift(t *testing.T) {
	const n = 4
	prior := uniformPerf(n, 1e-3, 4e6)
	truth := prior.Clone()
	truth.Set(0, 1, netmodel.PairPerf{Latency: 1e-3, Bandwidth: 0.5e6}) // 8x slower
	truth.Set(2, 3, netmodel.PairPerf{Latency: 1e-3, Bandwidth: 16e6})  // 4x faster
	c := mustNew(t, prior, Config{})
	rng := rand.New(rand.NewSource(7))
	for batch := 0; batch < 40; batch++ {
		rep := c.ObserveBatch(sampleBatch(truth, rng, 0.05, 16<<10, 64<<10))
		if rep.RejectedBounds > 0 || rep.RejectedRetry > 0 || rep.RejectedOutcome > 0 {
			t.Fatalf("clean batch structurally rejected: %+v", rep)
		}
	}
	for _, pair := range [][2]int{{0, 1}, {2, 3}, {1, 0}} {
		pe := c.Pair(pair[0], pair[1])
		if !pe.Trusted {
			t.Fatalf("pair %v not trusted after 40 clean batches (conf %.3f)", pair, pe.Confidence)
		}
		size := int64(32 << 10)
		wantT := truth.TransferTime(pair[0], pair[1], size)
		gotT := pe.Perf.TransferTime(size)
		if relErr(gotT, wantT) > 0.25 {
			t.Errorf("pair %v: estimated transfer time %.4gs vs truth %.4gs (>25%% off)", pair, gotT, wantT)
		}
	}
	// The calibrated table must differ from the prior on the drifted
	// pairs and Apply must be copy-on-write.
	applied := c.Apply(prior)
	if applied == prior {
		t.Fatal("Apply returned the input pointer despite trusted drifted pairs")
	}
	if applied.At(0, 1) == prior.At(0, 1) {
		t.Error("drifted pair (0,1) not overlaid by Apply")
	}
	if prior.At(0, 1) != (netmodel.PairPerf{Latency: 1e-3, Bandwidth: 4e6}) {
		t.Error("Apply mutated its input table")
	}
}

// TestCalibratorRejectsPoisonedPair runs the ISSUE's poisoning attack:
// one pair reports garbage timings, always via stalls/retries. The
// poisoned pair must never earn trust, and healthy pairs must stay
// within tolerance of truth.
func TestCalibratorRejectsPoisonedPair(t *testing.T) {
	const n = 4
	prior := uniformPerf(n, 1e-3, 4e6)
	truth := prior.Clone()
	truth.Set(3, 0, netmodel.PairPerf{Latency: 1e-3, Bandwidth: 1e6})
	c := mustNew(t, prior, Config{})
	rng := rand.New(rand.NewSource(11))
	rejected := 0
	for batch := 0; batch < 40; batch++ {
		samples := sampleBatch(truth, rng, 0.05, 16<<10, 64<<10)
		for k := range samples {
			if samples[k].Src == 1 && samples[k].Dst == 2 {
				// The lying link: absurd timings, delivered only after
				// stalls and retries.
				samples[k].Seconds *= 40
				samples[k].Retries = 1 + rng.Intn(3)
			}
		}
		rep := c.ObserveBatch(samples)
		rejected += rep.RejectedRetry
	}
	if rejected != 40 {
		t.Fatalf("expected all 40 poisoned samples rejected structurally, got %d", rejected)
	}
	poisoned := c.Pair(1, 2)
	sum := c.Summarize()
	if poisoned.Trusted || poisoned.Confidence >= sum.TrustThreshold {
		t.Fatalf("poisoned pair earned trust: %+v", poisoned)
	}
	// The poisoned pair's exported estimate is exactly the prior: the
	// scheduler falls back to the static table for it.
	applied := c.Apply(prior)
	if applied.At(1, 2) != prior.At(1, 2) {
		t.Errorf("poisoned pair estimate leaked into Apply: %+v", applied.At(1, 2))
	}
	// Healthy pairs stay within bounds of truth.
	for _, pair := range [][2]int{{3, 0}, {0, 1}} {
		pe := c.Pair(pair[0], pair[1])
		size := int64(32 << 10)
		if relErr(pe.Perf.TransferTime(size), truth.TransferTime(pair[0], pair[1], size)) > 0.25 {
			t.Errorf("healthy pair %v drifted off truth: %+v", pair, pe.Perf)
		}
	}
	// The lying link is the least trusted pair.
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if pe := c.Pair(src, dst); src != dst && (src != 1 || dst != 2) && pe.Confidence <= poisoned.Confidence {
				t.Errorf("pair %d->%d (confidence %.3f) is trusted no more than the lying link (%.3f)",
					src, dst, pe.Confidence, poisoned.Confidence)
			}
		}
	}
}

// TestCalibratorOutlierGate feeds a healthy pair with sporadic huge
// spikes (structurally clean, so only the MAD gate can catch them) and
// checks the estimate holds.
func TestCalibratorOutlierGate(t *testing.T) {
	prior := uniformPerf(2, 1e-3, 4e6)
	c := mustNew(t, prior, Config{})
	rng := rand.New(rand.NewSource(3))
	outliers := 0
	for batch := 0; batch < 60; batch++ {
		size := int64(32<<10) + rng.Int63n(16<<10)
		s := Sample{Src: 0, Dst: 1, Bytes: size,
			Seconds: prior.TransferTime(0, 1, size) * (1 + 0.05*(2*rng.Float64()-1)),
			Outcome: OutcomeDelivered}
		if batch >= 10 && batch%5 == 0 {
			s.Seconds *= 40 // sporadic spike
		}
		rep := c.ObserveBatch([]Sample{s})
		outliers += rep.RejectedOutlier
	}
	if outliers == 0 {
		t.Fatal("MAD gate never fired on 40x spikes")
	}
	pe := c.Pair(0, 1)
	if !pe.Trusted {
		t.Fatalf("healthy pair lost trust to sporadic spikes: %+v", pe)
	}
	size := int64(32 << 10)
	if relErr(pe.Perf.TransferTime(size), prior.TransferTime(0, 1, size)) > 0.2 {
		t.Errorf("spikes bent the estimate: %+v", pe.Perf)
	}
}

// TestCalibratorRegimeChange steps the true network and checks the
// outlier streak is read as a regime change: evidence resets and the
// new truth is learned, instead of being rejected forever.
func TestCalibratorRegimeChange(t *testing.T) {
	prior := uniformPerf(2, 1e-3, 8e6)
	c := mustNew(t, prior, Config{})
	rng := rand.New(rand.NewSource(5))
	feed := func(bw float64, batches int) (resets int) {
		truth := uniformPerf(2, 1e-3, bw)
		for b := 0; b < batches; b++ {
			size := int64(32<<10) + rng.Int63n(16<<10)
			rep := c.ObserveBatch([]Sample{{Src: 0, Dst: 1, Bytes: size,
				Seconds: truth.TransferTime(0, 1, size) * (1 + 0.04*(2*rng.Float64()-1)),
				Outcome: OutcomeDelivered}})
			resets += rep.Resets
		}
		return resets
	}
	if resets := feed(8e6, 20); resets != 0 {
		t.Fatalf("steady regime triggered %d resets", resets)
	}
	// Step: the link degrades 6x. The first outlierStreak-1 samples are
	// rejected, then the streak resets the pair and it re-learns.
	if resets := feed(8e6/6, 30); resets == 0 {
		t.Fatal("step change never triggered a regime reset")
	}
	pe := c.Pair(0, 1)
	size := int64(32 << 10)
	want := (netmodel.PairPerf{Latency: 1e-3, Bandwidth: 8e6 / 6}).TransferTime(size)
	if !pe.Trusted || relErr(pe.Perf.TransferTime(size), want) > 0.25 {
		t.Errorf("pair did not re-learn the stepped truth: %+v (want t≈%.4g)", pe, want)
	}
}

// TestCalibratorStaleness verifies silence erodes trust: a pair that
// stops reporting decays back below the trust threshold and reads
// stale, so consumers return to the static table.
func TestCalibratorStaleness(t *testing.T) {
	prior := uniformPerf(2, 1e-3, 4e6)
	truth := uniformPerf(2, 1e-3, 1e6)
	c := mustNew(t, prior, Config{})
	rng := rand.New(rand.NewSource(9))
	for b := 0; b < 20; b++ {
		c.ObserveBatch(sampleBatch(truth, rng, 0.03, 16<<10, 32<<10))
	}
	if pe := c.Pair(0, 1); !pe.Trusted {
		t.Fatalf("pair not trusted after 20 clean batches: %+v", pe)
	}
	// Silence: batches keep arriving (other traffic), this pair reports
	// nothing.
	for b := 0; b < 120; b++ {
		c.ObserveBatch(nil)
	}
	pe := c.Pair(0, 1)
	if pe.Trusted {
		t.Fatalf("pair still trusted after 120 silent batches: conf %.3f", pe.Confidence)
	}
	if !pe.Stale {
		t.Error("pair not marked stale")
	}
	if got := c.Apply(prior); got != prior {
		t.Error("stale pair still overlaid by Apply")
	}
}

// TestCalibratorDeterministic is the satellite property test: a fixed
// sample sequence produces an identical calibrator — estimates, drained
// updates, and summary — across two independent instances.
func TestCalibratorDeterministic(t *testing.T) {
	const n = 5
	prior := uniformPerf(n, 2e-3, 6e6)
	truth := prior.Clone()
	truth.Set(0, 3, netmodel.PairPerf{Latency: 4e-3, Bandwidth: 1e6})
	truth.Set(4, 1, netmodel.PairPerf{Latency: 1e-3, Bandwidth: 20e6})
	mkBatches := func() [][]Sample {
		rng := rand.New(rand.NewSource(42))
		var batches [][]Sample
		for b := 0; b < 25; b++ {
			batch := sampleBatch(truth, rng, 0.1, 1<<10, 256<<10)
			for k := range batch {
				switch {
				case k%13 == 0:
					batch[k].Retries = 2
				case k%17 == 0:
					batch[k].Outcome = OutcomeRerouted
				case k%23 == 0:
					batch[k].Seconds *= 50
				}
			}
			batches = append(batches, batch)
		}
		return batches
	}
	run := func() (*Calibrator, [][]Update, []BatchReport) {
		c := mustNew(t, prior, Config{})
		var ups [][]Update
		var reps []BatchReport
		for _, b := range mkBatches() {
			reps = append(reps, c.ObserveBatch(b))
			ups = append(ups, c.Updates())
		}
		return c, ups, reps
	}
	c1, ups1, reps1 := run()
	c2, ups2, reps2 := run()
	if !reflect.DeepEqual(reps1, reps2) {
		t.Fatalf("batch reports diverged:\n%+v\n%+v", reps1, reps2)
	}
	if !reflect.DeepEqual(ups1, ups2) {
		t.Fatalf("drained updates diverged")
	}
	if !c1.Apply(prior).Equal(c2.Apply(prior)) {
		t.Fatal("estimated tables diverged")
	}
	if !reflect.DeepEqual(c1.Summarize(), c2.Summarize()) {
		t.Fatal("summaries diverged")
	}
}

// TestCalibratorUpdatesDrain checks Updates is a quiet drain: it
// republishes a pair only after meaningful movement.
func TestCalibratorUpdatesDrain(t *testing.T) {
	prior := uniformPerf(2, 1e-3, 4e6)
	truth := uniformPerf(2, 1e-3, 1e6)
	c := mustNew(t, prior, Config{})
	rng := rand.New(rand.NewSource(1))
	for b := 0; b < 20; b++ {
		c.ObserveBatch(sampleBatch(truth, rng, 0.02, 16<<10, 32<<10))
	}
	first := c.Updates()
	if len(first) == 0 {
		t.Fatal("no updates drained after convergence")
	}
	for _, u := range first {
		pp := netmodel.PairPerf{Latency: u.Latency, Bandwidth: u.Bandwidth}
		if !pp.Valid() {
			t.Fatalf("drained update not physically valid: %+v", u)
		}
		if u.Confidence < c.Summarize().TrustThreshold {
			t.Fatalf("drained update below trust: %+v", u)
		}
	}
	if again := c.Updates(); len(again) != 0 {
		t.Fatalf("steady-state drain not empty: %+v", again)
	}
	// One more near-identical batch must not trigger a republish.
	c.ObserveBatch(sampleBatch(truth, rng, 0.02, 16<<10, 32<<10))
	if again := c.Updates(); len(again) != 0 {
		t.Fatalf("republished without meaningful movement: %+v", again)
	}
}

// TestCalibratorNilSafe exercises every exported method on a nil
// receiver.
func TestCalibratorNilSafe(t *testing.T) {
	var c *Calibrator
	if rep := c.ObserveBatch([]Sample{{Src: 0, Dst: 1}}); rep.RejectedBounds != 1 {
		t.Errorf("nil ObserveBatch: %+v", rep)
	}
	p := uniformPerf(2, 1e-3, 1e6)
	if got := c.Apply(p); got != p {
		t.Error("nil Apply changed the table")
	}
	if c.Updates() != nil || c.N() != 0 {
		t.Error("nil accessors not zero")
	}
	_ = c.Pair(0, 1)
	_ = c.Summarize()
}

// TestCalibratorPriorValidation checks New rejects a prior that cannot
// anchor a fit.
func TestCalibratorPriorValidation(t *testing.T) {
	if _, err := New(nil, Config{}); err == nil {
		t.Error("nil prior accepted")
	}
	bad := netmodel.NewPerf(2) // zero bandwidths: invalid table
	if _, err := New(bad, Config{}); err == nil {
		t.Error("invalid prior accepted")
	}
}

// TestCalibratorColdApplySharesPointer pins the opt-in contract: a
// calibrator that has seen nothing returns the input table unchanged,
// by pointer, with zero allocations.
func TestCalibratorColdApplySharesPointer(t *testing.T) {
	prior := uniformPerf(8, 1e-3, 1e6)
	c := mustNew(t, prior, Config{})
	allocs := testing.AllocsPerRun(100, func() {
		if got := c.Apply(prior); got != prior {
			t.Fatal("cold Apply cloned")
		}
	})
	if allocs != 0 {
		t.Errorf("cold Apply allocates: %.1f allocs/op", allocs)
	}
}
