// Package multinet implements the multiple-heterogeneous-network
// point-to-point techniques the paper builds on (Section 2, citing Kim
// & Lilja): hosts joined simultaneously by several networks — say
// Ethernet, ATM and Fibre Channel — with different start-up costs and
// bandwidths per network.
//
// Two techniques choose how a message uses the networks:
//
//   - PBPS (Performance Based Path Selection) sends the whole message
//     over whichever single network is fastest for its size. Small
//     messages favour low start-up cost; large messages favour high
//     bandwidth; the crossover falls out of the T + m/B model.
//   - Aggregation stripes one message across several networks at once,
//     choosing the split so all pieces finish together (a piece is
//     sent on a network only if the shared finish time exceeds that
//     network's start-up cost).
//
// Either technique collapses the multi-network pair into a single
// effective transfer time, which then feeds the standard communication
// matrix — so the paper's collective schedulers run unchanged on
// multi-network systems.
package multinet

import (
	"fmt"
	"math"
	"sort"

	"hetsched/internal/model"
	"hetsched/internal/netmodel"
)

// Option is one network available between a pair of hosts.
type Option struct {
	Name string
	netmodel.PairPerf
}

// Pair is the set of networks joining one ordered host pair.
type Pair struct {
	Options []Option
}

// Valid reports whether every option is physically meaningful and at
// least one exists.
func (p Pair) Valid() bool {
	if len(p.Options) == 0 {
		return false
	}
	for _, o := range p.Options {
		if !o.Valid() {
			return false
		}
	}
	return true
}

// PBPS returns the fastest single network for a message of the given
// size and the resulting transfer time.
func (p Pair) PBPS(size int64) (Option, float64, error) {
	if !p.Valid() {
		return Option{}, 0, fmt.Errorf("multinet: invalid network set")
	}
	best := p.Options[0]
	bestT := best.TransferTime(size)
	for _, o := range p.Options[1:] {
		if t := o.TransferTime(size); t < bestT {
			best, bestT = o, t
		}
	}
	return best, bestT, nil
}

// Share is one piece of an aggregated transfer.
type Share struct {
	Option
	Bytes int64
}

// Aggregate stripes the message across the networks so that every used
// network finishes at the same time, and returns the shared finish
// time with the per-network byte split. Networks whose start-up cost
// exceeds the optimal finish time carry nothing. The continuous
// optimum finishes at
//
//	t = (m + Σ Ti·Bi) / Σ Bi
//
// over the used set; the used set is found by trying prefixes of the
// options sorted by start-up cost. Byte shares are rounded while
// conserving the total.
func (p Pair) Aggregate(size int64) (float64, []Share, error) {
	if !p.Valid() {
		return 0, nil, fmt.Errorf("multinet: invalid network set")
	}
	if size < 0 {
		return 0, nil, fmt.Errorf("multinet: negative size %d", size)
	}
	opts := append([]Option(nil), p.Options...)
	sort.SliceStable(opts, func(a, b int) bool { return opts[a].Latency < opts[b].Latency })

	bestT := math.Inf(1)
	bestK := 0
	for k := 1; k <= len(opts); k++ {
		sumTB, sumB := 0.0, 0.0
		for _, o := range opts[:k] {
			sumTB += o.Latency * o.Bandwidth
			sumB += o.Bandwidth
		}
		t := (float64(size) + sumTB) / sumB
		// Feasible only if every used network can start before t.
		if t < opts[k-1].Latency {
			continue
		}
		if t < bestT {
			bestT, bestK = t, k
		}
	}
	if bestK == 0 {
		// Degenerate (size 0 with all latencies positive): fall back to
		// the single fastest network.
		o, t, err := p.PBPS(size)
		if err != nil {
			return 0, nil, err
		}
		return t, []Share{{Option: o, Bytes: size}}, nil
	}

	shares := make([]Share, 0, bestK)
	var assigned int64
	for i, o := range opts[:bestK] {
		b := int64(math.Floor((bestT - o.Latency) * o.Bandwidth))
		if b < 0 {
			b = 0
		}
		if i == bestK-1 || assigned+b > size {
			b = size - assigned
		}
		shares = append(shares, Share{Option: o, Bytes: b})
		assigned += b
	}
	if assigned != size {
		// Rounding left a few bytes: give them to the fastest network.
		shares[0].Bytes += size - assigned
	}
	return bestT, shares, nil
}

// System is a full multi-network system: for every ordered host pair,
// the set of networks joining it. AddNetwork is for setup only; once
// built, a System is never mutated by Matrix (which copies before
// sorting), so a built System is safe for concurrent use by multiple
// goroutines.
type System struct {
	n     int
	pairs [][]Pair
}

// NewSystem creates an n-host system with no networks; add them with
// AddNetwork.
func NewSystem(n int) *System {
	s := &System{n: n, pairs: make([][]Pair, n)}
	for i := range s.pairs {
		s.pairs[i] = make([]Pair, n)
	}
	return s
}

// N returns the number of hosts.
func (s *System) N() int { return s.n }

// AddNetwork attaches a network with uniform pairwise performance
// between every host pair (a shared medium like a site Ethernet).
func (s *System) AddNetwork(name string, pp netmodel.PairPerf) error {
	if !pp.Valid() {
		return fmt.Errorf("multinet: invalid performance for %q", name)
	}
	for i := 0; i < s.n; i++ {
		for j := 0; j < s.n; j++ {
			if i != j {
				s.pairs[i][j].Options = append(s.pairs[i][j].Options, Option{Name: name, PairPerf: pp})
			}
		}
	}
	return nil
}

// Technique selects how messages use the available networks.
type Technique int

const (
	// SingleFastest uses, for every pair, the network with the best
	// large-message bandwidth — the static single-network baseline.
	SingleFastest Technique = iota
	// UsePBPS picks the best network per message size.
	UsePBPS
	// UseAggregation stripes each message across the networks.
	UseAggregation
)

// String names the technique.
func (t Technique) String() string {
	switch t {
	case SingleFastest:
		return "single-fastest"
	case UsePBPS:
		return "pbps"
	case UseAggregation:
		return "aggregation"
	default:
		return fmt.Sprintf("Technique(%d)", int(t))
	}
}

// Matrix collapses the system into a communication matrix for the
// given message sizes under the technique — ready for any scheduler.
func (s *System) Matrix(sizes *model.Sizes, tech Technique) (*model.Matrix, error) {
	if sizes.N() != s.n {
		return nil, fmt.Errorf("multinet: sizes are for %d hosts, system has %d", sizes.N(), s.n)
	}
	m := model.NewMatrix(s.n)
	for i := 0; i < s.n; i++ {
		for j := 0; j < s.n; j++ {
			if i == j {
				continue
			}
			pair := s.pairs[i][j]
			if !pair.Valid() {
				return nil, fmt.Errorf("multinet: no network between %d and %d", i, j)
			}
			var t float64
			var err error
			switch tech {
			case SingleFastest:
				best := pair.Options[0]
				for _, o := range pair.Options[1:] {
					if o.Bandwidth > best.Bandwidth {
						best = o
					}
				}
				t = best.TransferTime(sizes.At(i, j))
			case UsePBPS:
				_, t, err = pair.PBPS(sizes.At(i, j))
			case UseAggregation:
				t, _, err = pair.Aggregate(sizes.At(i, j))
			default:
				return nil, fmt.Errorf("multinet: unknown technique %v", tech)
			}
			if err != nil {
				return nil, err
			}
			m.Set(i, j, t)
		}
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}
