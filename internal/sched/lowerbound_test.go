package sched

import (
	"math/rand"
	"testing"

	"hetsched/internal/model"
	"hetsched/internal/netmodel"
)

// TestLowerBoundMatchesRowColSums: Matrix.LowerBound's one row-major
// pass equals, with ==, the largest RowSum/ColSum — the definition it
// replaced — on the matrix families the open shop is tested on: random
// costs, GUSTO-guided networks with random sizes, and every tie family,
// across the 64/65 boundary where its column sums leave the stack.
func TestLowerBoundMatchesRowColSums(t *testing.T) {
	reference := func(m *model.Matrix) float64 {
		lb := 0.0
		for p := 0; p < m.N(); p++ {
			if s := m.RowSum(p); s > lb {
				lb = s
			}
			if r := m.ColSum(p); r > lb {
				lb = r
			}
		}
		return lb
	}
	rng := rand.New(rand.NewSource(17))
	families := append([]tieFamily{
		iid("random", func(rng *rand.Rand) float64 { return rng.Float64() * 1e3 }),
	}, tieFamilies...)
	for _, n := range []int{2, 50, 64, 65, 200} {
		perf := netmodel.RandomPerf(rng, n, netmodel.GustoGuided())
		sizes := model.NewSizes(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j {
					sizes.Set(i, j, 1+rng.Int63n(1<<20))
				}
			}
		}
		gusto, err := model.Build(perf, sizes)
		if err != nil {
			t.Fatal(err)
		}
		cases := map[string]*model.Matrix{"gusto": gusto}
		for _, fam := range families {
			cases[fam.name] = fam.draw(rng, n)
		}
		for name, m := range cases {
			if got, want := m.LowerBound(), reference(m); got != want {
				t.Errorf("P=%d %s: LowerBound = %v, max of RowSum/ColSum = %v", n, name, got, want)
			}
		}
	}
}
