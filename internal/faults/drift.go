package faults

import (
	"fmt"
	"math"
	"net"
	"sort"
	"sync"
	"time"

	"hetsched/internal/netmodel"
)

// This file is the chaos harness for the closed calibration loop: a
// seeded model of network drift (Drifter) and a pair-aware connection
// wrapper (PairDelayInjector) that makes an in-process transport
// actually exhibit the drifted performance, so measured transfer
// timings diverge from the static directory table exactly the way a
// real wide-area network's would. The calibration chaos tests drive
// exec.Mem through the injector and check that a calibrated
// communicator re-learns the truth while a static one keeps planning
// against fiction.

// DriftKind names the shape of one drift event.
type DriftKind int

const (
	// DriftStep applies the factor abruptly at Start and keeps it.
	DriftStep DriftKind = iota
	// DriftRamp moves the factor geometrically from 1 to Factor over
	// Duration ticks starting at Start — gradual congestion onset.
	DriftRamp
	// DriftFlap alternates between nominal and Factor every Period
	// ticks from Start on — the oscillating link no single measurement
	// can pin down.
	DriftFlap
)

// String names the kind for logs and test failure messages.
func (k DriftKind) String() string {
	switch k {
	case DriftStep:
		return "step"
	case DriftRamp:
		return "ramp"
	case DriftFlap:
		return "flap"
	}
	return "unknown"
}

// DriftEvent is one scheduled change to a directed pair. Ticks are the
// Drifter's virtual time unit — the harness calls Advance once per
// exchange (or per batch), so drift is deterministic in the call
// sequence, never in the wall clock.
type DriftEvent struct {
	Src, Dst int
	Kind     DriftKind
	// Start is the tick the event begins to apply.
	Start int
	// Duration: ramp length in ticks (DriftRamp; 0 selects 1). For
	// steps and flaps, 0 means "forever" and a positive value bounds
	// the event to [Start, Start+Duration).
	Duration int
	// Factor multiplies the pair's bandwidth (fully applied at
	// Start+Duration for ramps). Must be positive; values below
	// FailFloor are clamped the same way Network clamps failures.
	Factor float64
	// Period is the flap half-cycle in ticks (DriftFlap; 0 selects 1):
	// Factor applies during odd half-cycles.
	Period int
	// LatFactor, when positive, multiplies the pair's latency with the
	// same time profile as Factor. 0 leaves latency untouched.
	LatFactor float64
}

// Drifter evolves a base performance table through a timeline of drift
// events in virtual ticks. It is safe for concurrent use: the executor
// reads pairs through Lookup from transport goroutines while the
// harness Advances between exchanges.
type Drifter struct {
	base   *netmodel.Perf
	events []DriftEvent

	mu   sync.Mutex
	tick int
}

// NewDrifter validates the event timeline against the base table.
func NewDrifter(base *netmodel.Perf, events []DriftEvent) (*Drifter, error) {
	if base == nil {
		return nil, fmt.Errorf("faults: nil base table")
	}
	n := base.N()
	cp := append([]DriftEvent(nil), events...)
	for k, e := range cp {
		if e.Src < 0 || e.Src >= n || e.Dst < 0 || e.Dst >= n || e.Src == e.Dst {
			return nil, fmt.Errorf("faults: drift event %d targets invalid pair %d→%d for %d processors", k, e.Src, e.Dst, n)
		}
		if e.Factor <= 0 || math.IsInf(e.Factor, 0) || math.IsNaN(e.Factor) {
			return nil, fmt.Errorf("faults: drift event %d has invalid factor %g", k, e.Factor)
		}
		if e.LatFactor < 0 || math.IsInf(e.LatFactor, 0) || math.IsNaN(e.LatFactor) {
			return nil, fmt.Errorf("faults: drift event %d has invalid latency factor %g", k, e.LatFactor)
		}
		if e.Start < 0 || e.Duration < 0 || e.Period < 0 {
			return nil, fmt.Errorf("faults: drift event %d has negative timing", k)
		}
	}
	sort.SliceStable(cp, func(a, b int) bool { return cp[a].Start < cp[b].Start })
	return &Drifter{base: base.Clone(), events: cp}, nil
}

// N returns the number of processors the drifter covers.
func (d *Drifter) N() int { return d.base.N() }

// Advance moves virtual time forward one tick and returns the new tick.
func (d *Drifter) Advance() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.tick++
	return d.tick
}

// Tick returns the current virtual time.
func (d *Drifter) Tick() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.tick
}

// strength returns how much of event e applies at tick t, in [0, 1]:
// 0 before Start (or after a bounded event's window), 1 fully applied,
// fractional mid-ramp, and alternating for flaps.
func (e DriftEvent) strength(t int) float64 {
	if t < e.Start {
		return 0
	}
	age := t - e.Start
	switch e.Kind {
	case DriftRamp:
		dur := e.Duration
		if dur <= 0 {
			dur = 1
		}
		if age >= dur {
			return 1
		}
		return float64(age) / float64(dur)
	case DriftFlap:
		if e.Duration > 0 && age >= e.Duration {
			return 0
		}
		period := e.Period
		if period <= 0 {
			period = 1
		}
		if (age/period)%2 == 1 {
			return 1
		}
		return 0
	default: // DriftStep
		if e.Duration > 0 && age >= e.Duration {
			return 0
		}
		return 1
	}
}

// at returns the drifted performance of one pair at tick t. Factors
// compose geometrically (Factor^strength), so a half-applied ramp to
// ¼ bandwidth runs at ½ — smooth in log space, where link capacity
// changes live.
func (d *Drifter) at(src, dst, t int) netmodel.PairPerf {
	pp := d.base.At(src, dst)
	bw, lat := 1.0, 1.0
	for _, e := range d.events {
		if e.Src != src || e.Dst != dst {
			continue
		}
		s := e.strength(t)
		if s == 0 {
			continue
		}
		bw *= math.Pow(e.Factor, s)
		if e.LatFactor > 0 {
			lat *= math.Pow(e.LatFactor, s)
		}
	}
	if bw < FailFloor {
		bw = FailFloor
	}
	pp.Bandwidth *= bw
	pp.Latency *= lat
	return pp
}

// Lookup returns the current drifted performance of one pair — the
// feed for PairDelayInjector. Out-of-range pairs return the zero
// PairPerf (the injector then adds no delay).
func (d *Drifter) Lookup(src, dst int) netmodel.PairPerf {
	n := d.base.N()
	if src < 0 || src >= n || dst < 0 || dst >= n || src == dst {
		return netmodel.PairPerf{}
	}
	d.mu.Lock()
	t := d.tick
	d.mu.Unlock()
	return d.at(src, dst, t)
}

// Current returns the full drifted table at the current tick — the
// ground truth a perfectly informed directory would serve.
func (d *Drifter) Current() *netmodel.Perf {
	d.mu.Lock()
	t := d.tick
	d.mu.Unlock()
	n := d.base.N()
	perf := netmodel.NewPerf(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			perf.Set(i, j, d.at(i, j, t))
		}
	}
	return perf
}

// Events returns a copy of the sorted event timeline.
func (d *Drifter) Events() []DriftEvent { return append([]DriftEvent(nil), d.events...) }

// PairDelayConfig tunes a PairDelayInjector.
type PairDelayConfig struct {
	// Lookup supplies the performance to emulate for each directed
	// pair, consulted live on every read so mid-run drift applies to
	// in-flight transfers (Drifter.Lookup is the canonical source).
	// Required.
	Lookup func(src, dst int) netmodel.PairPerf
	// TimeScale multiplies every emulated duration, so a test can
	// emulate a slow wide-area link in fast wall time; 0 selects 1.
	TimeScale float64
	// Sleep performs the emulated delays; nil selects time.Sleep.
	Sleep func(time.Duration)
}

// PairDelayCounts reports what a PairDelayInjector has done.
type PairDelayCounts struct {
	Conns  int           // connections wrapped
	Sleeps int           // emulated delays performed
	Slept  time.Duration // total emulated time
}

// PairDelayInjector emulates per-pair network performance on the
// accept side of an in-process transport: the first read of each
// connection pays the pair's start-up latency, and every read pays
// bytes/bandwidth of transmission time. An exec.Mem pipe buffers only
// a frame header and an ack per direction, like a socket's send
// buffer, and hands a larger write to the reader whole, returning once
// the reader has taken it. So throttling the reader throttles the
// sender's payload write — the executor's measured transfer timings
// then reflect the emulated network, which is exactly what the
// calibration loop consumes.
// Install with exec's Mem.SetPairWrapper(in.WrapPair).
type PairDelayInjector struct {
	cfg PairDelayConfig

	mu  sync.Mutex
	ctr PairDelayCounts
}

// NewPairDelayInjector builds an injector, applying config defaults.
func NewPairDelayInjector(cfg PairDelayConfig) (*PairDelayInjector, error) {
	if cfg.Lookup == nil {
		return nil, fmt.Errorf("faults: pair delay injector needs a Lookup")
	}
	if cfg.TimeScale < 0 || math.IsInf(cfg.TimeScale, 0) || math.IsNaN(cfg.TimeScale) {
		return nil, fmt.Errorf("faults: invalid time scale %g", cfg.TimeScale)
	}
	if cfg.TimeScale == 0 {
		cfg.TimeScale = 1
	}
	if cfg.Sleep == nil {
		cfg.Sleep = time.Sleep
	}
	return &PairDelayInjector{cfg: cfg}, nil
}

// Counts returns a copy of the injector's counters.
func (in *PairDelayInjector) Counts() PairDelayCounts {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.ctr
}

// WrapPair wraps the accept-side half of one src→dst connection — the
// signature exec's Mem.SetPairWrapper expects.
func (in *PairDelayInjector) WrapPair(src, dst int, c net.Conn) net.Conn {
	in.mu.Lock()
	in.ctr.Conns++
	in.mu.Unlock()
	return &pairDelayConn{Conn: c, in: in, src: src, dst: dst}
}

// sleep performs one emulated delay of secs seconds (scaled).
func (in *PairDelayInjector) sleep(secs float64) {
	if secs <= 0 || math.IsInf(secs, 0) || math.IsNaN(secs) {
		return
	}
	d := time.Duration(secs * in.cfg.TimeScale * float64(time.Second))
	if d <= 0 {
		return
	}
	in.mu.Lock()
	in.ctr.Sleeps++
	in.ctr.Slept += d
	in.mu.Unlock()
	in.cfg.Sleep(d)
}

// pairDelayConn applies the injector's emulated performance to one
// accept-side connection.
type pairDelayConn struct {
	net.Conn
	in       *PairDelayInjector
	src, dst int

	latOnce sync.Once
}

func (p *pairDelayConn) Read(b []byte) (int, error) {
	// Latency is paid before the first byte is consumed. The dialer's
	// header write is buffered and does not wait for it, but its
	// payload write returns only after this read and the ones behind
	// it proceed, so the sender observes the start-up cost through the
	// payload, as it would on a real link.
	p.latOnce.Do(func() {
		p.in.sleep(p.in.cfg.Lookup(p.src, p.dst).Latency)
	})
	n, err := p.Conn.Read(b)
	if n > 0 {
		pp := p.in.cfg.Lookup(p.src, p.dst)
		if pp.Bandwidth > 0 {
			p.in.sleep(float64(n) / pp.Bandwidth)
		}
	}
	return n, err
}
