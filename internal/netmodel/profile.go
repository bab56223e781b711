package netmodel

import (
	"fmt"
	"math"
)

// Load profiles: deterministic, time-of-day-style bandwidth variation
// for adaptivity experiments. Where Walker models jittery short-term
// load as a random walk, a Profile models the slow, predictable
// component — the diurnal swell of shared-network traffic the paper's
// metacomputing environment would see — as a smooth multiplicative
// curve per pair. Sampling a profile over a horizon yields the
// piecewise epochs the simulator consumes.

// Profile maps a time to a bandwidth multiplier for one ordered pair.
// Multipliers must be positive.
type Profile func(src, dst int, t float64) float64

// DiurnalProfile returns a sinusoidal day/night load curve: bandwidth
// swings between (1-depth) and (1+depth) of its base value with the
// given period, phase-shifted per source site so that sites peak at
// different times (phases spread evenly over the period).
func DiurnalProfile(n int, period, depth float64) (Profile, error) {
	if period <= 0 {
		return nil, fmt.Errorf("netmodel: non-positive period %g", period)
	}
	if depth < 0 || depth >= 1 {
		return nil, fmt.Errorf("netmodel: depth %g outside [0,1)", depth)
	}
	if n <= 0 {
		return nil, fmt.Errorf("netmodel: non-positive size %d", n)
	}
	return func(src, _ int, t float64) float64 {
		phase := 2 * math.Pi * float64(src) / float64(n)
		return 1 + depth*math.Sin(2*math.Pi*t/period+phase)
	}, nil
}

// SampleProfile applies the profile to a base table at a single time.
func SampleProfile(base *Perf, p Profile, t float64) *Perf {
	out := base.Clone()
	n := base.N()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			pp := out.At(i, j)
			pp.Bandwidth = base.At(i, j).Bandwidth * p(i, j, t)
			out.Set(i, j, pp)
		}
	}
	return out
}
