package assignment

import (
	"math"
	"math/rand"
	"testing"
)

// refSolveMin is the original nested-slice implementation of the
// shortest-augmenting-path solver, kept verbatim as a reference: the
// flat Solver core must reproduce it bit-for-bit (permutation and
// total), which the tests below pin.
func refSolveMin(cost [][]float64) ([]int, float64, error) {
	n, err := checkSquare(cost)
	if err != nil {
		return nil, 0, err
	}
	if n == 0 {
		return nil, 0, nil
	}
	u := make([]float64, n+1)
	v := make([]float64, n+1)
	p := make([]int, n+1)
	way := make([]int, n+1)
	for i := 1; i <= n; i++ {
		p[0] = i
		j0 := 0
		minv := make([]float64, n+1)
		used := make([]bool, n+1)
		for j := range minv {
			minv[j] = math.Inf(1)
		}
		for {
			used[j0] = true
			i0 := p[j0]
			j1 := 0
			delta := math.Inf(1)
			for j := 1; j <= n; j++ {
				if used[j] {
					continue
				}
				cur := cost[i0-1][j-1] - u[i0] - v[j]
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
				return nil, 0, errNoPath
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
	rowToCol := make([]int, n)
	total := 0.0
	for j := 1; j <= n; j++ {
		rowToCol[p[j]-1] = j - 1
		total += cost[p[j]-1][j-1]
	}
	if total >= Forbidden {
		return nil, 0, errForbidden
	}
	return rowToCol, total, nil
}

var (
	errNoPath    = errString("no augmenting path")
	errForbidden = errString("forbidden edge")
)

type errString string

func (e errString) Error() string { return string(e) }

// randMatrix builds a random cost matrix with a zero diagonal, the
// shape the schedulers feed the solver.
func randCostMatrix(rng *rand.Rand, n int) [][]float64 {
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, n)
		for j := range rows[i] {
			if i != j {
				rows[i][j] = rng.Float64()*10 + 0.01
			}
		}
	}
	return rows
}

func flatOf(rows [][]float64) []float64 {
	n := len(rows)
	return flatten(rows, n)
}

func sameAssign(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSolverMatchesReference cross-checks the flat core, through
// SolveMin, against the retained original implementation on random
// instances, including the exact float total.
func TestSolverMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(12)
		rows := randCostMatrix(rng, n)
		refAssign, refTotal, refErr := refSolveMin(rows)
		if refErr != nil {
			t.Fatalf("reference failed: %v", refErr)
		}
		out, total, err := SolveMin(rows)
		if err != nil {
			t.Fatalf("flat solver failed: %v", err)
		}
		if !sameAssign(refAssign, out) {
			t.Fatalf("n=%d: assign %v != reference %v", n, out, refAssign)
		}
		if math.Float64bits(total) != math.Float64bits(refTotal) {
			t.Fatalf("n=%d: total %v != reference %v (bit-exact)", n, total, refTotal)
		}
	}
}

// TestSolveMinStillOptimal keeps the package wrapper honest against
// brute force after the Solver refactor.
func TestSolveMinStillOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(6)
		rows := randCostMatrix(rng, n)
		assign, total, err := SolveMin(rows)
		if err != nil {
			t.Fatal(err)
		}
		_, bestTotal := BruteForceMin(rows)
		if math.Abs(total-bestTotal) > 1e-9 {
			t.Fatalf("n=%d: total %v, brute force %v", n, total, bestTotal)
		}
		if !IsPermutation(assign) {
			t.Fatalf("not a permutation: %v", assign)
		}
	}
}

// TestSolverZeroAlloc asserts a solver grown to size solves again
// without allocating.
func TestSolverZeroAlloc(t *testing.T) {
	if raceEnabled {
		// -race instrumentation changes escape analysis; allocation
		// counts are meaningless under it. The !race CI step runs this
		// for real (see .github/workflows/ci.yml).
		t.Skip("allocation counts are not meaningful under -race")
	}
	n := 50
	rng := rand.New(rand.NewSource(3))
	flat := flatOf(randCostMatrix(rng, n))
	var s Solver
	out := make([]int, n)
	if _, err := s.SolveMaxInto(out, flat, n); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := s.SolveMaxInto(out, flat, n); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("flat solve: %v allocs/op, want 0", allocs)
	}
}

func BenchmarkSolveMaxCold(b *testing.B) {
	for _, n := range []int{8, 16, 50} {
		b.Run(sizeName(n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(int64(n)))
			flat := flatOf(randCostMatrix(rng, n))
			var s Solver
			out := make([]int, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.SolveMaxInto(out, flat, n); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func sizeName(n int) string {
	switch n {
	case 8:
		return "P8"
	case 16:
		return "P16"
	case 50:
		return "P50"
	}
	return "P?"
}
