package assignment

import (
	"fmt"
	"math"
)

// Solver is a reusable linear-assignment solver over flat row-major
// cost slices. It owns every buffer the O(n³) shortest-augmenting-path
// method needs, so steady-state solves perform zero heap allocations
// once the solver has grown to the problem size. A Solver is not safe
// for concurrent use; give each goroutine its own.
//
// The zero value is ready to use and grows on demand.
type Solver struct {
	n int // current capacity in rows

	// Core JV state, 1-based with a virtual root column 0.
	u, v []float64
	p    []int
	way  []int
	minv []float64
	used []bool

	// Negated-cost scratch for max solves.
	neg []float64
}

// grow ensures the solver's buffers cover an n-row problem.
func (s *Solver) grow(n int) {
	if n <= s.n && s.u != nil {
		return
	}
	s.n = n
	s.u = make([]float64, n+1)
	s.v = make([]float64, n+1)
	s.p = make([]int, n+1)
	s.way = make([]int, n+1)
	s.minv = make([]float64, n+1)
	s.used = make([]bool, n+1)
	s.neg = make([]float64, n*n)
}

// checkFlat validates a flat row-major n×n cost slice.
func checkFlat(cost []float64, n int) error {
	if len(cost) != n*n {
		return fmt.Errorf("assignment: flat cost has %d entries, want %d×%d", len(cost), n, n)
	}
	for k, c := range cost {
		if math.IsNaN(c) || math.IsInf(c, 0) {
			return fmt.Errorf("assignment: cost[%d][%d] = %v is not finite", k/n, k%n, c)
		}
	}
	return nil
}

// SolveMaxInto computes the maximum-cost assignment of the flat
// row-major n×n matrix into out (length n) and returns the total cost,
// with the same Forbidden handling as SolveMax: entries ≤ -Forbidden
// are unusable. It performs no heap allocations once the solver has
// grown to size n.
func (s *Solver) SolveMaxInto(out []int, cost []float64, n int) (float64, error) {
	if err := checkFlat(cost, n); err != nil {
		return 0, err
	}
	if len(out) != n {
		return 0, fmt.Errorf("assignment: out has length %d, want %d", len(out), n)
	}
	s.grow(n)
	s.negate(cost, n)
	total, err := s.solveMinFlat(out, s.neg, n)
	if err != nil {
		return 0, err
	}
	return -total, nil
}

// negate fills s.neg with the max→min transform used by SolveMax.
func (s *Solver) negate(cost []float64, n int) {
	for k := 0; k < n*n; k++ {
		if cost[k] <= -Forbidden {
			s.neg[k] = Forbidden
		} else {
			s.neg[k] = -cost[k]
		}
	}
}

// solveMinFlat is the shortest-augmenting-path core. cost must be
// validated; out must have length n.
func (s *Solver) solveMinFlat(out []int, cost []float64, n int) (float64, error) {
	if n == 0 {
		return 0, nil
	}
	s.grow(n)
	u, v, p, way, minv, used := s.u, s.v, s.p, s.way, s.minv, s.used
	for j := 0; j <= n; j++ {
		u[j], v[j] = 0, 0
		p[j], way[j] = 0, 0
	}
	for i := 1; i <= n; i++ {
		p[0] = i
		j0 := 0
		for j := 0; j <= n; j++ {
			minv[j] = math.Inf(1)
			used[j] = false
		}
		for {
			used[j0] = true
			i0 := p[j0]
			j1 := 0
			delta := math.Inf(1)
			row := cost[(i0-1)*n:]
			for j := 1; j <= n; j++ {
				if used[j] {
					continue
				}
				cur := row[j-1] - u[i0] - v[j]
				if cur < minv[j] {
					minv[j] = cur
					way[j] = j0
				}
				if minv[j] < delta {
					delta = minv[j]
					j1 = j
				}
			}
			if math.IsInf(delta, 1) {
				return 0, fmt.Errorf("assignment: no augmenting path for row %d", i-1)
			}
			for j := 0; j <= n; j++ {
				if used[j] {
					u[p[j]] += delta
					v[j] -= delta
				} else {
					minv[j] -= delta
				}
			}
			j0 = j1
			if p[j0] == 0 {
				break
			}
		}
		for j0 != 0 {
			j1 := way[j0]
			p[j0] = p[j1]
			j0 = j1
		}
	}
	total := 0.0
	for j := 1; j <= n; j++ {
		if p[j] == 0 {
			return 0, fmt.Errorf("assignment: column %d left unassigned", j-1)
		}
		out[p[j]-1] = j - 1
		total += cost[(p[j]-1)*n+(j-1)]
	}
	if total >= Forbidden {
		return 0, fmt.Errorf("assignment: optimal assignment requires a forbidden edge")
	}
	return total, nil
}
