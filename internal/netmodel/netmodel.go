// Package netmodel provides the heterogeneous network substrate used by
// the scheduling framework: end-to-end pairwise performance tables,
// site/link topologies with routed paths and shared-link bandwidth
// division, the GUSTO testbed data from the paper (Tables 1 and 2), and
// reproducible random generators guided by that data.
//
// The package deliberately models the network at the level visible to an
// application in a metacomputing system: each ordered processor pair
// (i, j) has a start-up latency and an effective data transmission
// bandwidth. Topology, routing and flow control are hidden behind those
// two numbers, exactly as in the paper's communication model.
//
// Units are SI throughout: seconds for latency, bytes/second for
// bandwidth. Helpers convert from the paper's milliseconds and kbit/s.
package netmodel

import (
	"errors"
	"fmt"
	"math"
)

// PairPerf is the end-to-end network performance between one ordered
// pair of processors: a start-up latency in seconds and a sustained
// transmission bandwidth in bytes per second.
type PairPerf struct {
	Latency   float64 // seconds of fixed per-message start-up cost
	Bandwidth float64 // bytes per second of sustained transfer rate
}

// TransferTime returns the modelled time in seconds to move a message of
// size bytes across this pair: Latency + size/Bandwidth. A non-positive
// bandwidth yields +Inf for a non-empty message.
func (p PairPerf) TransferTime(size int64) float64 {
	if size <= 0 {
		return p.Latency
	}
	if p.Bandwidth <= 0 {
		return math.Inf(1)
	}
	return p.Latency + float64(size)/p.Bandwidth
}

// Valid reports whether the pair performance is physically meaningful:
// finite non-negative latency and finite positive bandwidth.
func (p PairPerf) Valid() bool { return p.Check() == nil }

// ErrPerfBounds marks a pair-performance value rejected by bounds
// validation at a trust boundary. Test with errors.Is.
var ErrPerfBounds = errors.New("netmodel: performance out of bounds")

// Check is Valid with a diagnosis: nil for a physically meaningful
// pair, otherwise an error wrapping ErrPerfBounds that names the first
// violated bound. Trust boundaries that accept measured performance
// from elsewhere — the directory's calibration feed, a client
// validating a snapshot it did not produce — use Check so a rejected
// value says why it was rejected instead of silently vanishing.
func (p PairPerf) Check() error {
	switch {
	case math.IsNaN(p.Latency) || math.IsInf(p.Latency, 0):
		return fmt.Errorf("%w: non-finite latency %v", ErrPerfBounds, p.Latency)
	case p.Latency < 0:
		return fmt.Errorf("%w: negative latency %v", ErrPerfBounds, p.Latency)
	case math.IsNaN(p.Bandwidth) || math.IsInf(p.Bandwidth, 0):
		return fmt.Errorf("%w: non-finite bandwidth %v", ErrPerfBounds, p.Bandwidth)
	case p.Bandwidth <= 0:
		return fmt.Errorf("%w: non-positive bandwidth %v", ErrPerfBounds, p.Bandwidth)
	}
	return nil
}

// Perf is a dense table of pairwise network performance for an N
// processor system. The diagonal describes a processor talking to
// itself and is conventionally ignored by schedulers (local copies are
// free in the paper's model), but it is kept addressable so tables can
// round-trip through encoders unchanged.
type Perf struct {
	n     int
	pairs []PairPerf // row-major n×n
}

// NewPerf returns an n×n performance table with all entries zero.
func NewPerf(n int) *Perf {
	if n < 0 {
		panic(fmt.Sprintf("netmodel: negative size %d", n))
	}
	return &Perf{n: n, pairs: make([]PairPerf, n*n)}
}

// N returns the number of processors the table covers.
func (p *Perf) N() int { return p.n }

// At returns the performance from processor i to processor j.
func (p *Perf) At(i, j int) PairPerf { return p.pairs[i*p.n+j] }

// Set records the performance from processor i to processor j.
func (p *Perf) Set(i, j int, pp PairPerf) { p.pairs[i*p.n+j] = pp }

// Clone returns a deep copy of the table.
func (p *Perf) Clone() *Perf {
	c := NewPerf(p.n)
	copy(c.pairs, p.pairs)
	return c
}

// Validate checks that every off-diagonal entry is physically
// meaningful. It returns an error naming the first offending pair.
func (p *Perf) Validate() error {
	for i := 0; i < p.n; i++ {
		for j := 0; j < p.n; j++ {
			if i == j {
				continue
			}
			if err := p.At(i, j).Check(); err != nil {
				return fmt.Errorf("netmodel: invalid performance %+v for pair (%d,%d): %w", p.At(i, j), i, j, err)
			}
		}
	}
	return nil
}

// Equal reports whether two tables have the same size and identical
// entries (by float64 equality, so a table containing NaN never equals
// anything), so "unsure" reads as "not equal".
func (p *Perf) Equal(o *Perf) bool {
	if o == nil || p.n != o.n {
		return false
	}
	for k := range p.pairs {
		if p.pairs[k] != o.pairs[k] {
			return false
		}
	}
	return true
}

// Symmetric reports whether the table is symmetric (perf i→j equals
// perf j→i for every pair), as the paper's GUSTO tables are.
func (p *Perf) Symmetric() bool {
	for i := 0; i < p.n; i++ {
		for j := i + 1; j < p.n; j++ {
			if p.At(i, j) != p.At(j, i) {
				return false
			}
		}
	}
	return true
}

// TransferTime returns the modelled time to send a message of size
// bytes from processor i to processor j. Sending to self is free, per
// the paper's convention that local memory copies are negligible.
func (p *Perf) TransferTime(i, j int, size int64) float64 {
	if i == j {
		return 0
	}
	return p.At(i, j).TransferTime(size)
}

// Scale returns a copy of the table with every bandwidth multiplied by
// factor. Latencies are unchanged. It panics if factor is not positive.
func (p *Perf) Scale(factor float64) *Perf {
	if factor <= 0 || math.IsNaN(factor) || math.IsInf(factor, 0) {
		panic(fmt.Sprintf("netmodel: invalid scale factor %v", factor))
	}
	c := p.Clone()
	for k := range c.pairs {
		c.pairs[k].Bandwidth *= factor
	}
	return c
}

// ErrSizeMismatch is returned when two tables of different sizes are
// combined.
var ErrSizeMismatch = errors.New("netmodel: performance tables have different sizes")

// MsToSeconds converts a latency in milliseconds (the unit of the
// paper's Table 1) to seconds.
func MsToSeconds(ms float64) float64 { return ms / 1e3 }

// KbpsToBytesPerSecond converts a bandwidth in kilobits per second (the
// unit of the paper's Table 2) to bytes per second.
func KbpsToBytesPerSecond(kbps float64) float64 { return kbps * 1000 / 8 }

// SecondsToMs converts seconds to milliseconds.
func SecondsToMs(s float64) float64 { return s * 1e3 }

// BytesPerSecondToKbps converts bytes per second to kilobits per second.
func BytesPerSecondToKbps(bps float64) float64 { return bps * 8 / 1000 }
