// Package assignment solves the linear assignment problem (LAP): given
// an n×n cost matrix, find a one-to-one assignment of rows to columns
// with minimum (or maximum) total cost. A perfect matching in a complete
// bipartite graph of maximum or minimum weight is exactly this problem,
// which is how the paper's matching-based schedulers use it. The paper
// credits Roy Jonker's public-domain LAP code; this package provides an
// independent from-scratch implementation of the same O(n³)
// shortest-augmenting-path method (the core of the Jonker–Volgenant
// algorithm), plus an ε-scaling auction solver and an exhaustive
// reference used to cross-validate both in tests.
package assignment

import (
	"fmt"
	"math"
)

// Forbidden marks an edge that the assignment must not use. It is a
// large finite cost rather than +Inf so dual-variable arithmetic stays
// finite. Callers should check chosen edges against their own forbidden
// sets; SolveMin returns an error if it is forced to use one.
const Forbidden = math.MaxFloat64 / 4

// checkSquare validates the matrix shape shared by all solvers.
func checkSquare(cost [][]float64) (int, error) {
	n := len(cost)
	for i, row := range cost {
		if len(row) != n {
			return 0, fmt.Errorf("assignment: row %d has %d entries, want %d", i, len(row), n)
		}
		for j, c := range row {
			if math.IsNaN(c) || math.IsInf(c, 0) {
				return 0, fmt.Errorf("assignment: cost[%d][%d] = %v is not finite", i, j, c)
			}
		}
	}
	return n, nil
}

// flatten copies a validated square matrix into a fresh flat row-major
// slice, the shape the Solver core consumes.
func flatten(cost [][]float64, n int) []float64 {
	flat := make([]float64, n*n)
	for i, row := range cost {
		copy(flat[i*n:(i+1)*n], row)
	}
	return flat
}

// SolveMin returns rowToCol, the minimum-cost perfect assignment of
// rows to columns, and its total cost. The algorithm is the
// shortest-augmenting-path method with dual potentials used by the
// Jonker–Volgenant solver, running in O(n³) time. It is a convenience
// wrapper over Solver, which callers that solve repeatedly can use
// directly to reuse buffers across solves.
//
// Entries set to Forbidden are treated as unusable; if every perfect
// assignment must use a forbidden edge, SolveMin returns an error.
func SolveMin(cost [][]float64) ([]int, float64, error) {
	n, err := checkSquare(cost)
	if err != nil {
		return nil, 0, err
	}
	if n == 0 {
		return nil, 0, nil
	}
	var s Solver
	out := make([]int, n)
	total, err := s.solveMinFlat(out, flatten(cost, n), n)
	if err != nil {
		return nil, 0, err
	}
	return out, total, nil
}

// SolveMax returns the maximum-cost perfect assignment by negating the
// matrix and minimizing. Entries equal to -Forbidden (or set via the
// weight Forbidden in a max context, i.e. entries ≤ -Forbidden) are
// treated as unusable.
func SolveMax(cost [][]float64) ([]int, float64, error) {
	n, err := checkSquare(cost)
	if err != nil {
		return nil, 0, err
	}
	if n == 0 {
		return nil, 0, nil
	}
	var s Solver
	out := make([]int, n)
	total, err := s.SolveMaxInto(out, flatten(cost, n), n)
	if err != nil {
		return nil, 0, err
	}
	return out, total, nil
}

// TotalCost sums cost[i][assign[i]] over all rows. It is a convenience
// for reporting and testing.
func TotalCost(cost [][]float64, assign []int) float64 {
	total := 0.0
	for i, j := range assign {
		total += cost[i][j]
	}
	return total
}

// IsPermutation reports whether assign maps {0..n-1} onto {0..n-1}
// bijectively.
func IsPermutation(assign []int) bool {
	seen := make([]bool, len(assign))
	for _, j := range assign {
		if j < 0 || j >= len(assign) || seen[j] {
			return false
		}
		seen[j] = true
	}
	return true
}

// BruteForceMin exhaustively finds a minimum-cost assignment. It is
// exponential and intended only to cross-validate the polynomial
// solvers on small inputs in tests. It panics for n > 10.
func BruteForceMin(cost [][]float64) ([]int, float64) {
	n := len(cost)
	if n > 10 {
		panic("assignment: BruteForceMin limited to n <= 10")
	}
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	best := append([]int(nil), perm...)
	bestCost := TotalCost(cost, perm)
	var recurse func(k int)
	recurse = func(k int) {
		if k == n {
			if c := TotalCost(cost, perm); c < bestCost {
				bestCost = c
				copy(best, perm)
			}
			return
		}
		for i := k; i < n; i++ {
			perm[k], perm[i] = perm[i], perm[k]
			recurse(k + 1)
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	recurse(0)
	return best, bestCost
}

// BruteForceMax is the maximizing counterpart of BruteForceMin.
func BruteForceMax(cost [][]float64) ([]int, float64) {
	n := len(cost)
	neg := make([][]float64, n)
	for i := range neg {
		neg[i] = make([]float64, n)
		for j := range neg[i] {
			neg[i][j] = -cost[i][j]
		}
	}
	assign, negTotal := BruteForceMin(neg)
	return assign, -negTotal
}
