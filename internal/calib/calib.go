// Package calib closes the measurement loop between the data plane and
// the directory: the executor reports what every transfer actually
// cost, and the calibrator turns those samples into per-pair (latency,
// bandwidth) estimates the planner can trust — or deliberately refuse
// to trust.
//
// The estimator fits the paper's communication model t = L + size/B per
// ordered pair with an exponentially-weighted least-squares regression.
// Two pseudo-observations anchored on the static directory table act as
// a prior, so a cold pair reads exactly as the static table and a pair
// with sparse or decayed evidence blends back toward it instead of
// extrapolating from noise. The feedback path itself is the attack
// surface (ISSUE: "survive drift and lying links"), so every sample
// runs a rejection gauntlet before it may touch the fit:
//
//   - structural: retried, stalled, rerouted, or abandoned transfers
//     never count — their timings measure the fault, not the link;
//   - bounds: non-finite or non-positive durations, out-of-range pairs;
//   - statistical: a MAD gate over the pair's recent accepted
//     residuals rejects spikes that are wildly inconsistent with what
//     the pair has been measuring, while a bounded rejection streak is
//     read as a genuine regime change (a step in the real network) and
//     resets the pair instead of rejecting the new truth forever.
//
// Every pair carries a confidence in [0, 1] — evidence weight blended
// with an exponentially-weighted accept fraction — and consumers only
// see estimates for pairs above the trust threshold; everything else
// falls back to the static table. A poisoned pair (garbage timings via
// stalls and retries) therefore converges to confidence ≈ 0 and is
// simply ignored, rather than steering the scheduler. DESIGN.md §14
// documents the loop end to end.
//
// The calibrator is deterministic for a fixed sample sequence (the
// hetvet determinism scope covers this package): no wall clock, no
// randomness — staleness is counted in observation batches, not
// seconds. All methods are safe for concurrent use and no-ops on a nil
// receiver, matching the repo's opt-in telemetry idiom.
package calib

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"hetsched/internal/netmodel"
	"hetsched/internal/obs"
)

// Transfer outcomes, as the executor classifies resolved transfers.
// Only delivered transfers calibrate: rerouted ones ran under a repair
// plan whose pair may differ from the sample's, and abandoned ones
// never finished.
const (
	OutcomeDelivered = "delivered"
	OutcomeRerouted  = "rerouted"
	OutcomeAbandoned = "abandoned"
)

// Sample is one measured transfer, as reported by the data plane. It is
// a wire type: the directory's calibrate op carries samples verbatim,
// so the JSON field names are part of the protocol.
type Sample struct {
	Src     int     `json:"src"`
	Dst     int     `json:"dst"`
	Bytes   int64   `json:"bytes"`
	Seconds float64 `json:"seconds"`
	Retries int     `json:"retries,omitempty"`
	Outcome string  `json:"outcome"`
}

// Update is one trusted per-pair estimate, ready to feed the directory.
// Confidence and Samples travel with it so the receiving side can apply
// its own acceptance policy. Like Sample, it is a wire type.
type Update struct {
	Src        int     `json:"src"`
	Dst        int     `json:"dst"`
	Latency    float64 `json:"latency"`
	Bandwidth  float64 `json:"bandwidth"`
	Confidence float64 `json:"confidence"`
	Samples    uint64  `json:"samples,omitempty"`
}

// Config tunes the estimator. The zero value selects usable defaults;
// fields are knobs, not required inputs.
type Config struct {
	// Decay is the per-batch retention of measured evidence, in (0, 1].
	// Each ObserveBatch multiplies every pair's accumulated sample
	// weight by Decay, so pairs that stop reporting slide back toward
	// the static prior instead of serving stale measurements forever.
	// 0 selects 0.97.
	Decay float64
	// PriorWeight is the pseudo-sample weight of the static directory
	// table in every pair's fit. Confidence is evidence weight against
	// this prior, so it also sets how many clean samples a pair needs
	// before it can be trusted. 0 selects 3.
	PriorWeight float64
	// PriorSpanBytes is the transfer size at which the prior's second
	// anchor point sits while a pair has no evidence (the first anchor
	// sits at zero bytes, pinning latency). Once samples arrive the
	// anchor follows the pair's mean measured size, so the prior's pull
	// on the slope is scale-matched to real traffic instead of
	// dominating it through sheer leverage. 0 selects 1 MiB.
	PriorSpanBytes float64
	// MADWindow is how many recent accepted residuals each pair keeps
	// for the outlier gate. 0 selects 16.
	MADWindow int
	// MADK is the rejection threshold in MAD units. 0 selects 4.
	MADK float64
	// MADMinSamples is how many residuals the window needs before the
	// outlier gate arms; until then everything structurally clean is
	// accepted. 0 selects 5.
	MADMinSamples int
	// MADFloor is an absolute floor on the deviation scale (residuals
	// are measured-over-predicted ratios, so this is a relative
	// tolerance): with it, a pair whose recent samples agree perfectly
	// does not start rejecting ordinary jitter. 0 selects 0.08.
	MADFloor float64
	// OutlierStreak is how many consecutive MAD rejections are read as
	// a regime change (a real step in the network) rather than noise:
	// the pair's measured evidence is reset and re-learned from the
	// new samples. A lying link cannot trip this cheaply — structural
	// rejections (stalls, retries) do not count toward the streak.
	// 0 selects 6.
	OutlierStreak int
	// TrustThreshold is the minimum confidence at which a pair's
	// estimate is exported (Apply, Updates, Estimates). Below it the
	// static table wins. 0 selects 0.35; negative trusts every
	// measured pair immediately.
	TrustThreshold float64
	// MinPushDelta is the relative movement (in latency or bandwidth)
	// below which Updates does not republish a pair, keeping the
	// directory feed quiet in steady state. 0 selects 0.05.
	MinPushDelta float64
	// MaxAdjust caps how far an estimate may stray from the prior
	// (bandwidth within [prior/MaxAdjust, prior·MaxAdjust]); a fit run
	// off garbage can be wrong, but never absurd. 0 selects 1000.
	MaxAdjust float64
	// StaleAfterBatches is how many batches without an accepted sample
	// mark a pair stale in summaries. Staleness is advisory — decay
	// already erodes the confidence of a silent pair. 0 selects 50.
	StaleAfterBatches uint64

	// Telemetry, all optional and nil-safe.
	Metrics *obs.Registry
	Flight  *obs.FlightRecorder
}

// goodnessBeta is the per-sample weight of the exponentially-weighted
// accept fraction that scales confidence: a pair whose samples keep
// getting rejected (a lying link) bleeds trust at this rate.
const goodnessBeta = 0.15

// summaryWorst bounds how many lowest-confidence pairs a Summary
// embeds.
const summaryWorst = 8

// withDefaults fills zero fields and validates the rest.
func (cfg Config) withDefaults() (Config, error) {
	if cfg.Decay == 0 {
		cfg.Decay = 0.97
	}
	if cfg.PriorWeight == 0 {
		cfg.PriorWeight = 3
	}
	if cfg.PriorSpanBytes == 0 {
		cfg.PriorSpanBytes = 1 << 20
	}
	if cfg.MADWindow == 0 {
		cfg.MADWindow = 16
	}
	if cfg.MADK == 0 {
		cfg.MADK = 4
	}
	if cfg.MADMinSamples == 0 {
		cfg.MADMinSamples = 5
	}
	if cfg.MADFloor == 0 {
		cfg.MADFloor = 0.08
	}
	if cfg.OutlierStreak == 0 {
		cfg.OutlierStreak = 6
	}
	if cfg.TrustThreshold == 0 {
		cfg.TrustThreshold = 0.35
	}
	if cfg.TrustThreshold < 0 {
		cfg.TrustThreshold = 0
	}
	if cfg.MinPushDelta == 0 {
		cfg.MinPushDelta = 0.05
	}
	if cfg.MaxAdjust == 0 {
		cfg.MaxAdjust = 1000
	}
	if cfg.StaleAfterBatches == 0 {
		cfg.StaleAfterBatches = 50
	}
	switch {
	case cfg.Decay <= 0 || cfg.Decay > 1 || math.IsNaN(cfg.Decay):
		return cfg, fmt.Errorf("calib: Decay %v outside (0, 1]", cfg.Decay)
	case cfg.PriorWeight <= 0 || math.IsInf(cfg.PriorWeight, 0) || math.IsNaN(cfg.PriorWeight):
		return cfg, fmt.Errorf("calib: PriorWeight %v must be positive and finite", cfg.PriorWeight)
	case cfg.PriorSpanBytes <= 0 || math.IsInf(cfg.PriorSpanBytes, 0):
		return cfg, fmt.Errorf("calib: PriorSpanBytes %v must be positive and finite", cfg.PriorSpanBytes)
	case cfg.MADWindow < 2:
		return cfg, fmt.Errorf("calib: MADWindow %d must be at least 2", cfg.MADWindow)
	case cfg.MADK <= 0 || cfg.MADFloor < 0:
		return cfg, fmt.Errorf("calib: MADK %v / MADFloor %v out of range", cfg.MADK, cfg.MADFloor)
	case cfg.MADMinSamples < 2 || cfg.MADMinSamples > cfg.MADWindow:
		return cfg, fmt.Errorf("calib: MADMinSamples %d outside [2, MADWindow]", cfg.MADMinSamples)
	case cfg.OutlierStreak < 2:
		return cfg, fmt.Errorf("calib: OutlierStreak %d must be at least 2", cfg.OutlierStreak)
	case cfg.MaxAdjust < 1 || math.IsNaN(cfg.MaxAdjust):
		return cfg, fmt.Errorf("calib: MaxAdjust %v must be at least 1", cfg.MaxAdjust)
	case cfg.MinPushDelta < 0 || math.IsNaN(cfg.MinPushDelta):
		return cfg, fmt.Errorf("calib: MinPushDelta %v must be non-negative", cfg.MinPushDelta)
	}
	return cfg, nil
}

// pairState is one ordered pair's accumulated evidence. The regression
// keeps exponentially-weighted sufficient statistics of (x=bytes,
// y=seconds) points; decay is applied lazily, indexed by batch number,
// so untouched pairs cost nothing per batch.
type pairState struct {
	sw, sx, sy, sxx, sxy float64
	decayedTo            uint64 // batch the statistics are decayed to

	ring          []float64 // recent accepted ratio residuals (lazily allocated)
	ringAt, ringN int
	streak        int // consecutive MAD rejections; regime-change detector

	accepted, rejected uint64
	lastAccept         uint64  // batch of the last accepted sample, 0 = never
	goodness           float64 // EW accept fraction in [0, 1]

	pushedLat, pushedBW float64 // estimate as of the last drained Update
}

// Calibrator is the online per-pair estimator. Construct with New; the
// zero value is not usable, but a nil *Calibrator is safe everywhere.
type Calibrator struct {
	cfg   Config
	prior *netmodel.Perf // immutable static table snapshot
	n     int

	mu         sync.Mutex
	batch      uint64
	pairs      []pairState // row-major n×n, diagonal unused
	accepted   uint64
	rejected   uint64
	madScratch []float64

	mBatches    *obs.Counter
	mAccepted   *obs.Counter
	mRejRetry   *obs.Counter
	mRejOutcome *obs.Counter
	mRejBounds  *obs.Counter
	mRejOutlier *obs.Counter
	mResets     *obs.Counter
	mUpdates    *obs.Counter
	mTrusted    *obs.Gauge
	mAdjust     *obs.Histogram
}

// New creates a calibrator for an N-pair system whose static directory
// table is prior. The prior is cloned and validated: it anchors every
// pair's fit and is what consumers fall back to, so it must be a
// physically meaningful table.
func New(prior *netmodel.Perf, cfg Config) (*Calibrator, error) {
	if prior == nil || prior.N() == 0 {
		return nil, fmt.Errorf("calib: nil or empty prior table")
	}
	if err := prior.Validate(); err != nil {
		return nil, fmt.Errorf("calib: invalid prior: %w", err)
	}
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	n := prior.N()
	c := &Calibrator{
		cfg:   cfg,
		prior: prior.Clone(),
		n:     n,
		pairs: make([]pairState, n*n),
	}
	if m := cfg.Metrics; m != nil {
		c.mBatches = m.Counter(obs.MetricCalibBatches, "Sample batches observed by the calibrator.")
		c.mAccepted = m.Counter(obs.MetricCalibSamples, "Transfer samples accepted into the calibration fit.", obs.L("outcome", "accepted"))
		rej := "Transfer samples rejected by the calibration gauntlet, by reason."
		c.mRejRetry = m.Counter(obs.MetricCalibRejects, rej, obs.L("reason", "retry"))
		c.mRejOutcome = m.Counter(obs.MetricCalibRejects, rej, obs.L("reason", "outcome"))
		c.mRejBounds = m.Counter(obs.MetricCalibRejects, rej, obs.L("reason", "bounds"))
		c.mRejOutlier = m.Counter(obs.MetricCalibRejects, rej, obs.L("reason", "outlier"))
		c.mResets = m.Counter(obs.MetricCalibResets, "Per-pair evidence resets after a sustained outlier streak (regime change).")
		c.mUpdates = m.Counter(obs.MetricCalibUpdates, "Trusted pair estimates drained for publication.")
		c.mTrusted = m.Gauge(obs.MetricCalibTrustedPairs, "Pairs currently above the trust threshold.")
		c.mAdjust = m.Histogram(obs.MetricCalibAdjust, "Published bandwidth estimate over the static prior, per drained update.", obs.RatioBuckets)
	}
	return c, nil
}

// N returns the number of processors the calibrator covers (0 on nil).
func (c *Calibrator) N() int {
	if c == nil {
		return 0
	}
	return c.n
}

// BatchReport accounts for one observed batch: every sample lands in
// exactly one bucket.
type BatchReport struct {
	Accepted        int
	RejectedRetry   int // structurally rejected: needed retries
	RejectedOutcome int // structurally rejected: not delivered in place
	RejectedBounds  int // malformed: bad pair, non-finite or absurd timing
	RejectedOutlier int // statistically rejected by the MAD gate
	Resets          int // regime-change evidence resets triggered
}

// Rejected returns the total rejected samples in the batch.
func (r BatchReport) Rejected() int {
	return r.RejectedRetry + r.RejectedOutcome + r.RejectedBounds + r.RejectedOutlier
}

// ObserveBatch feeds one exchange's samples through the rejection
// gauntlet into the per-pair fits and advances the staleness clock by
// one batch. It is the only mutating entry point, so a fixed sequence
// of batches always produces an identical calibrator state. Safe on a
// nil receiver (reports everything as bounds-rejected so the caller
// still sees the batch accounted for).
func (c *Calibrator) ObserveBatch(samples []Sample) BatchReport {
	if c == nil {
		return BatchReport{RejectedBounds: len(samples)}
	}
	var rep BatchReport
	c.mu.Lock()
	c.batch++
	for i := range samples {
		c.observeLocked(&samples[i], &rep)
	}
	c.accepted += uint64(rep.Accepted)
	c.rejected += uint64(rep.Rejected())
	trusted := c.trustedLocked()
	c.mu.Unlock()

	c.mBatches.Inc()
	c.mAccepted.Add(uint64(rep.Accepted))
	c.mRejRetry.Add(uint64(rep.RejectedRetry))
	c.mRejOutcome.Add(uint64(rep.RejectedOutcome))
	c.mRejBounds.Add(uint64(rep.RejectedBounds))
	c.mRejOutlier.Add(uint64(rep.RejectedOutlier))
	c.mResets.Add(uint64(rep.Resets))
	c.mTrusted.Set(float64(trusted))
	if n := rep.Rejected(); n > 0 {
		c.cfg.Flight.Record("calib", "sample_reject", 0, int64(n), int64(rep.Accepted))
	}
	return rep
}

// observeLocked runs one sample through the gauntlet. Caller holds c.mu.
func (c *Calibrator) observeLocked(s *Sample, rep *BatchReport) {
	if s.Src < 0 || s.Src >= c.n || s.Dst < 0 || s.Dst >= c.n || s.Src == s.Dst ||
		s.Bytes < 0 || s.Seconds <= 0 || math.IsInf(s.Seconds, 0) || math.IsNaN(s.Seconds) {
		rep.RejectedBounds++
		return
	}
	ps := &c.pairs[s.Src*c.n+s.Dst]
	c.decayLocked(ps)
	if s.Retries > 0 {
		rep.RejectedRetry++
		c.rejectLocked(ps)
		return
	}
	if s.Outcome != OutcomeDelivered {
		rep.RejectedOutcome++
		c.rejectLocked(ps)
		return
	}
	est, _ := c.solveLocked(ps, c.prior.At(s.Src, s.Dst))
	predicted := est.TransferTime(s.Bytes)
	if predicted < 1e-9 {
		predicted = 1e-9
	}
	ratio := s.Seconds / predicted
	if c.outlierLocked(ps, ratio) {
		ps.streak++
		if ps.streak < c.cfg.OutlierStreak {
			rep.RejectedOutlier++
			c.rejectLocked(ps)
			return
		}
		// A sustained, consistent disagreement is the network changing,
		// not noise: drop the old regime's evidence and learn the new
		// one from this sample on. Confidence restarts near zero, so
		// consumers fall back to the prior while the pair re-learns.
		rep.Resets++
		ps.sw, ps.sx, ps.sy, ps.sxx, ps.sxy = 0, 0, 0, 0, 0
		ps.ringN, ps.ringAt = 0, 0
		ps.streak = 0
		ratio = 1
	} else {
		ps.streak = 0
	}
	rep.Accepted++
	ps.accepted++
	ps.lastAccept = c.batch
	ps.goodness = (1-goodnessBeta)*ps.goodness + goodnessBeta
	x := float64(s.Bytes)
	ps.sw++
	ps.sx += x
	ps.sy += s.Seconds
	ps.sxx += x * x
	ps.sxy += x * s.Seconds
	if ps.ring == nil {
		ps.ring = make([]float64, c.cfg.MADWindow)
	}
	ps.ring[ps.ringAt] = ratio
	ps.ringAt = (ps.ringAt + 1) % len(ps.ring)
	if ps.ringN < len(ps.ring) {
		ps.ringN++
	}
}

// rejectLocked books one rejected sample against the pair's trust.
func (c *Calibrator) rejectLocked(ps *pairState) {
	if ps.accepted == 0 && ps.rejected == 0 {
		ps.goodness = 1
	}
	ps.rejected++
	ps.goodness = (1 - goodnessBeta) * ps.goodness
}

// decayLocked brings a pair's statistics forward to the current batch,
// eroding measured evidence so silence reads as staleness.
func (c *Calibrator) decayLocked(ps *pairState) {
	if ps.accepted == 0 && ps.rejected == 0 {
		ps.goodness = 1 // first touch: no evidence against the pair yet
	}
	if ps.decayedTo == c.batch {
		return
	}
	f := math.Pow(c.cfg.Decay, float64(c.batch-ps.decayedTo))
	ps.sw *= f
	ps.sx *= f
	ps.sy *= f
	ps.sxx *= f
	ps.sxy *= f
	ps.decayedTo = c.batch
}

// solveLocked fits the pair: measured sufficient statistics plus the
// prior's two anchor pseudo-points, solved as weighted least squares
// for t = L + x/B. The prior anchors keep the system well-conditioned
// at any sample count; MaxAdjust keeps the answer physical. Returns the
// blended estimate and the pair's confidence. Caller holds c.mu.
func (c *Calibrator) solveLocked(ps *pairState, prior netmodel.PairPerf) (netmodel.PairPerf, float64) {
	c.decayLocked(ps)
	half := c.cfg.PriorWeight / 2
	span := c.spanLocked(ps)
	anchor := prior.Latency + span/prior.Bandwidth // prior t at x=span
	sw := c.cfg.PriorWeight + ps.sw
	sx := half*span + ps.sx
	sy := half*prior.Latency + half*anchor + ps.sy
	sxx := half*span*span + ps.sxx
	sxy := half*span*anchor + ps.sxy
	est := prior
	if den := sw*sxx - sx*sx; den > 0 {
		invB := (sw*sxy - sx*sy) / den
		lat := (sy - invB*sx) / sw
		bw := math.Inf(1)
		if invB > 0 {
			bw = 1 / invB
		}
		if lat < 0 {
			lat = 0
		}
		if ceil := anchor * c.cfg.MaxAdjust; lat > ceil {
			lat = ceil
		}
		if ceil := prior.Bandwidth * c.cfg.MaxAdjust; bw > ceil {
			bw = ceil
		}
		if floor := prior.Bandwidth / c.cfg.MaxAdjust; bw < floor {
			bw = floor
		}
		if cand := (netmodel.PairPerf{Latency: lat, Bandwidth: bw}); cand.Valid() {
			est = cand
		}
	}
	conf := ps.sw / (ps.sw + c.cfg.PriorWeight) * ps.goodness
	return est, conf
}

// spanLocked is the transfer size the pair's prior anchor sits at: the
// configured span while the pair is cold, the mean measured size once
// evidence exists — a fixed far-out anchor would dominate the slope
// through x² leverage and the fit could only ever bend the intercept.
// Caller holds c.mu.
func (c *Calibrator) spanLocked(ps *pairState) float64 {
	if ps.sw > 0 {
		return math.Max(1, ps.sx/ps.sw)
	}
	return c.cfg.PriorSpanBytes
}

// outlierLocked reports whether ratio is inconsistent with the pair's
// recent accepted residuals (median ± MADK·MAD, floored). Caller holds
// c.mu.
func (c *Calibrator) outlierLocked(ps *pairState, ratio float64) bool {
	if ps.ringN < c.cfg.MADMinSamples {
		return false
	}
	s := append(c.madScratch[:0], ps.ring[:ps.ringN]...)
	sort.Float64s(s)
	med := quantiledMedian(s)
	for i := range s {
		s[i] = math.Abs(s[i] - med)
	}
	sort.Float64s(s)
	mad := quantiledMedian(s)
	c.madScratch = s
	return math.Abs(ratio-med) > c.cfg.MADK*math.Max(mad, c.cfg.MADFloor)
}

// quantiledMedian returns the median of an ascending-sorted slice.
func quantiledMedian(s []float64) float64 {
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// trustedLocked counts pairs above the trust threshold. Caller holds
// c.mu.
func (c *Calibrator) trustedLocked() int {
	trusted := 0
	for i := 0; i < c.n; i++ {
		for j := 0; j < c.n; j++ {
			if i == j {
				continue
			}
			ps := &c.pairs[i*c.n+j]
			if ps.accepted == 0 {
				continue
			}
			if _, conf := c.solveLocked(ps, c.prior.At(i, j)); conf >= c.cfg.TrustThreshold {
				trusted++
			}
		}
	}
	return trusted
}

// Apply overlays every trusted pair estimate onto perf, copy-on-write:
// it returns perf unchanged (same pointer, zero allocations) when no
// trusted estimate differs, which is always the case on a nil or cold
// calibrator — the disabled path costs one pointer check.
func (c *Calibrator) Apply(perf *netmodel.Perf) *netmodel.Perf {
	if c == nil {
		return perf
	}
	if perf == nil || perf.N() != c.n {
		return perf
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.overlayLocked(perf, true)
}

// Estimates returns the calibrated table: the static prior with every
// trusted pair overlaid. Nil receiver returns nil.
func (c *Calibrator) Estimates() *netmodel.Perf {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.overlayLocked(c.prior.Clone(), false)
}

// overlayLocked writes trusted estimates into perf; when cow is set the
// input is cloned before the first change. Caller holds c.mu.
func (c *Calibrator) overlayLocked(perf *netmodel.Perf, cow bool) *netmodel.Perf {
	out := perf
	for i := 0; i < c.n; i++ {
		for j := 0; j < c.n; j++ {
			if i == j {
				continue
			}
			ps := &c.pairs[i*c.n+j]
			if ps.accepted == 0 {
				continue
			}
			est, conf := c.solveLocked(ps, c.prior.At(i, j))
			if conf < c.cfg.TrustThreshold || out.At(i, j) == est {
				continue
			}
			if cow && out == perf {
				out = perf.Clone()
			}
			out.Set(i, j, est)
		}
	}
	return out
}

// Updates drains the trusted estimates that moved by at least
// MinPushDelta (relative, in either latency or bandwidth) since they
// were last drained — the directory feed. Ascending (src, dst) order;
// nil receiver and steady state both return nil.
func (c *Calibrator) Updates() []Update {
	if c == nil {
		return nil
	}
	var out []Update
	c.mu.Lock()
	for i := 0; i < c.n; i++ {
		for j := 0; j < c.n; j++ {
			if i == j {
				continue
			}
			ps := &c.pairs[i*c.n+j]
			if ps.accepted == 0 {
				continue
			}
			est, conf := c.solveLocked(ps, c.prior.At(i, j))
			if conf < c.cfg.TrustThreshold {
				continue
			}
			if !c.movedLocked(ps, est) {
				continue
			}
			ps.pushedLat, ps.pushedBW = est.Latency, est.Bandwidth
			out = append(out, Update{
				Src: i, Dst: j,
				Latency: est.Latency, Bandwidth: est.Bandwidth,
				Confidence: conf, Samples: ps.accepted,
			})
		}
	}
	c.mu.Unlock()
	for _, u := range out {
		c.mUpdates.Inc()
		if pr := c.prior.At(u.Src, u.Dst); pr.Bandwidth > 0 {
			c.mAdjust.Observe(u.Bandwidth / pr.Bandwidth)
		}
	}
	return out
}

// movedLocked reports whether an estimate moved enough since the pair
// was last drained to be worth republishing. Movement is measured where
// it matters — the modeled transfer time at the pair's measured size
// scale and near the latency end — so a wobble in the L/B split that
// leaves predictions unchanged stays quiet. Caller holds c.mu.
func (c *Calibrator) movedLocked(ps *pairState, est netmodel.PairPerf) bool {
	if ps.pushedBW == 0 {
		return true
	}
	span := c.spanLocked(ps)
	for _, x := range [2]float64{span, span / 8} {
		was := ps.pushedLat + x/ps.pushedBW
		now := est.Latency + x/est.Bandwidth
		if relDiff(now, was) >= c.cfg.MinPushDelta {
			return true
		}
	}
	return false
}

// relDiff is the relative difference between two non-negative values.
func relDiff(a, b float64) float64 {
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale == 0 {
		return 0
	}
	return math.Abs(a-b) / scale
}

// PairEstimate is one pair's full calibration state, for operators and
// tests.
type PairEstimate struct {
	Src, Dst   int
	Perf       netmodel.PairPerf // blended estimate (the prior when cold)
	Prior      netmodel.PairPerf
	Confidence float64
	Trusted    bool
	Stale      bool
	Accepted   uint64
	Rejected   uint64
}

// Pair returns one pair's calibration state. Out-of-range pairs and a
// nil receiver return the zero PairEstimate.
func (c *Calibrator) Pair(src, dst int) PairEstimate {
	if c == nil {
		return PairEstimate{Src: src, Dst: dst}
	}
	if src < 0 || src >= c.n || dst < 0 || dst >= c.n || src == dst {
		return PairEstimate{Src: src, Dst: dst}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pairLocked(src, dst)
}

// pairLocked builds a PairEstimate. Caller holds c.mu.
func (c *Calibrator) pairLocked(src, dst int) PairEstimate {
	ps := &c.pairs[src*c.n+dst]
	prior := c.prior.At(src, dst)
	est, conf := c.solveLocked(ps, prior)
	return PairEstimate{
		Src: src, Dst: dst,
		Perf: est, Prior: prior,
		Confidence: conf,
		Trusted:    ps.accepted > 0 && conf >= c.cfg.TrustThreshold,
		Stale:      ps.accepted > 0 && c.batch-ps.lastAccept > c.cfg.StaleAfterBatches,
		Accepted:   ps.accepted,
		Rejected:   ps.rejected,
	}
}

// PairSummary is one measured pair in a Summary, JSON-shaped for
// statusz.
type PairSummary struct {
	Src        int     `json:"src"`
	Dst        int     `json:"dst"`
	Latency    float64 `json:"latency"`
	Bandwidth  float64 `json:"bandwidth"`
	Confidence float64 `json:"confidence"`
	Trusted    bool    `json:"trusted"`
	Stale      bool    `json:"stale,omitempty"`
	Accepted   uint64  `json:"accepted"`
	Rejected   uint64  `json:"rejected"`
}

// Summary is the operator-facing snapshot served on /statusz: totals
// plus the lowest-confidence measured pairs (the ones being distrusted),
// worst first.
type Summary struct {
	N              int           `json:"n"`
	Batches        uint64        `json:"batches"`
	Accepted       uint64        `json:"accepted"`
	Rejected       uint64        `json:"rejected"`
	MeasuredPairs  int           `json:"measured_pairs"`
	TrustedPairs   int           `json:"trusted_pairs"`
	StalePairs     int           `json:"stale_pairs"`
	TrustThreshold float64       `json:"trust_threshold"`
	Worst          []PairSummary `json:"worst,omitempty"`
}

// Summarize collects a Summary. The zero Summary (nil receiver) is
// valid and renders as "calibration disabled".
func (c *Calibrator) Summarize() Summary {
	if c == nil {
		return Summary{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Summary{
		N:              c.n,
		Batches:        c.batch,
		Accepted:       c.accepted,
		Rejected:       c.rejected,
		TrustThreshold: c.cfg.TrustThreshold,
	}
	var all []PairSummary
	for i := 0; i < c.n; i++ {
		for j := 0; j < c.n; j++ {
			if i == j {
				continue
			}
			ps := &c.pairs[i*c.n+j]
			if ps.accepted == 0 && ps.rejected == 0 {
				continue
			}
			pe := c.pairLocked(i, j)
			s.MeasuredPairs++
			if pe.Trusted {
				s.TrustedPairs++
			}
			if pe.Stale {
				s.StalePairs++
			}
			all = append(all, PairSummary{
				Src: i, Dst: j,
				Latency: pe.Perf.Latency, Bandwidth: pe.Perf.Bandwidth,
				Confidence: pe.Confidence,
				Trusted:    pe.Trusted, Stale: pe.Stale,
				Accepted: pe.Accepted, Rejected: pe.Rejected,
			})
		}
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].Confidence != all[b].Confidence {
			return all[a].Confidence < all[b].Confidence
		}
		if all[a].Src != all[b].Src {
			return all[a].Src < all[b].Src
		}
		return all[a].Dst < all[b].Dst
	})
	if len(all) > summaryWorst {
		all = all[:summaryWorst]
	}
	s.Worst = all
	return s
}
