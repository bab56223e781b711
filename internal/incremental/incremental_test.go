package incremental

import (
	"math"
	"math/rand"
	"testing"

	"hetsched/internal/model"
	"hetsched/internal/netmodel"
	"hetsched/internal/sched"
	"hetsched/internal/timing"
)

// problem draws a matrix and its max-matching step decomposition.
func problem(t *testing.T, seed int64, n int) (*model.Matrix, *timing.StepSchedule) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	perf := netmodel.RandomPerf(rng, n, netmodel.GustoGuided())
	m, err := model.BuildUniform(perf, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	r, err := sched.MaxMatching{}.Schedule(m)
	if err != nil {
		t.Fatal(err)
	}
	return m, r.Steps
}

// perturb scales the cost of a fraction of pairs by factor.
func perturb(m *model.Matrix, rng *rand.Rand, frac, factor float64) *model.Matrix {
	out := m.Clone()
	for i := 0; i < m.N(); i++ {
		for j := 0; j < m.N(); j++ {
			if i != j && rng.Float64() < frac {
				out.Set(i, j, m.At(i, j)*factor)
			}
		}
	}
	return out
}

func TestRefineNoChangeIsIdentity(t *testing.T) {
	m, steps := problem(t, 1, 8)
	out, st, err := Refine(steps, m, m, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if st.DirtySteps != 0 || st.Matchings != 0 {
		t.Errorf("unchanged matrix triggered work: %+v", st)
	}
	if len(out.Steps) != len(steps.Steps) {
		t.Error("step count changed")
	}
	for k, step := range out.Steps {
		if len(step) != len(steps.Steps[k]) {
			t.Fatalf("step %d changed", k)
		}
	}
}

func TestRefinePreservesEventSet(t *testing.T) {
	for seed := int64(2); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed * 77))
		m, steps := problem(t, seed, 9)
		cur := perturb(m, rng, 0.15, 5)
		out, st, err := Refine(steps, m, cur, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if !out.CoversTotalExchange() {
			t.Fatalf("seed %d: repaired schedule is not a total exchange", seed)
		}
		if st.DirtySteps == 0 {
			t.Errorf("seed %d: 5× perturbation marked nothing dirty", seed)
		}
		if _, err := out.Evaluate(cur); err != nil {
			t.Fatalf("seed %d: repaired schedule does not evaluate: %v", seed, err)
		}
	}
}

func TestRefineMarksOnlyChangedSteps(t *testing.T) {
	m, steps := problem(t, 3, 8)
	// Change exactly one event's cost drastically.
	target := steps.Steps[2][0]
	cur := m.Clone()
	cur.Set(target.Src, target.Dst, m.At(target.Src, target.Dst)*10)
	out, st, err := Refine(steps, m, cur, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if st.DirtySteps != 1 {
		t.Errorf("one changed event should dirty one step, got %d", st.DirtySteps)
	}
	if !out.CoversTotalExchange() {
		t.Error("coverage lost")
	}
}

func TestRefineQualityNearRecompute(t *testing.T) {
	// The repaired schedule should be competitive with a full
	// recomputation under the new costs. Compare mean completion over
	// several perturbed instances: repair within 15% of recompute.
	var repairSum, fullSum float64
	const trials = 6
	for seed := int64(10); seed < 10+trials; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m, steps := problem(t, seed, 10)
		cur := perturb(m, rng, 0.2, 8)
		out, _, err := Refine(steps, m, cur, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		repaired, err := out.Evaluate(cur)
		if err != nil {
			t.Fatal(err)
		}
		full, err := sched.MaxMatching{}.Schedule(cur)
		if err != nil {
			t.Fatal(err)
		}
		repairSum += repaired.CompletionTime()
		fullSum += full.CompletionTime()
	}
	if repairSum > fullSum*1.15 {
		t.Errorf("repair quality too poor: repaired mean %g vs recompute mean %g", repairSum/trials, fullSum/trials)
	}
}

func TestRefineThresholdControlsSensitivity(t *testing.T) {
	m, steps := problem(t, 4, 8)
	rng := rand.New(rand.NewSource(5))
	cur := perturb(m, rng, 0.3, 1.05) // 5% changes everywhere
	// A 10% threshold ignores them.
	_, st, err := Refine(steps, m, cur, Options{Threshold: 0.1, Max: true})
	if err != nil {
		t.Fatal(err)
	}
	if st.DirtySteps != 0 {
		t.Errorf("5%% drift above 10%% threshold dirtied %d steps", st.DirtySteps)
	}
	// A 1% threshold reacts.
	_, st, err = Refine(steps, m, cur, Options{Threshold: 0.01, Max: true})
	if err != nil {
		t.Fatal(err)
	}
	if st.DirtySteps == 0 {
		t.Error("1% threshold should mark steps dirty")
	}
}

func TestRefineMinVariant(t *testing.T) {
	m, steps := problem(t, 6, 8)
	rng := rand.New(rand.NewSource(7))
	cur := perturb(m, rng, 0.25, 6)
	out, _, err := Refine(steps, m, cur, Options{Threshold: 0.1, Max: false})
	if err != nil {
		t.Fatal(err)
	}
	if !out.CoversTotalExchange() {
		t.Error("min-variant repair lost coverage")
	}
}

func TestRefineErrors(t *testing.T) {
	m, steps := problem(t, 8, 6)
	if _, _, err := Refine(steps, m, model.NewMatrix(4), DefaultOptions()); err == nil {
		t.Error("shape mismatch accepted")
	}
	if _, _, err := Refine(steps, m, m, Options{Threshold: -1}); err == nil {
		t.Error("negative threshold accepted")
	}
	bad := &timing.StepSchedule{N: 6, Steps: []timing.Step{{{Src: 0, Dst: 0}}}}
	if _, _, err := Refine(bad, m, m, DefaultOptions()); err == nil {
		t.Error("invalid steps accepted")
	}
	// A cost that is not a time fails the repair in either matrix,
	// instead of passing as clean (NaN) or being re-matched (negative).
	for _, c := range []float64{math.NaN(), math.Inf(1), -1} {
		badCost := m.Clone()
		badCost.Set(0, 1, c)
		if _, _, err := Refine(steps, m, badCost, DefaultOptions()); err == nil {
			t.Errorf("new cost %v accepted", c)
		}
		if _, _, err := Refine(steps, badCost, m, DefaultOptions()); err == nil {
			t.Errorf("old cost %v accepted", c)
		}
	}
}

func TestDecomposePoolSingleEdge(t *testing.T) {
	// Regression: a single pooled edge must decompose even though its
	// step cannot be completed by other pool edges.
	m := model.ExampleMatrix()
	steps, matchings, err := decomposePool(5, []timing.Pair{{Src: 0, Dst: 1}}, m, true)
	if err != nil {
		t.Fatal(err)
	}
	if matchings != 1 || len(steps) != 1 || len(steps[0]) != 1 || steps[0][0] != (timing.Pair{Src: 0, Dst: 1}) {
		t.Errorf("steps=%v matchings=%d", steps, matchings)
	}
}

func TestDecomposePoolParallelEdges(t *testing.T) {
	// Two disjoint edges must share one step; two conflicting edges
	// must split.
	m := model.ExampleMatrix()
	steps, _, err := decomposePool(5, []timing.Pair{{Src: 0, Dst: 1}, {Src: 2, Dst: 3}}, m, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != 1 || len(steps[0]) != 2 {
		t.Errorf("disjoint edges should share a step: %v", steps)
	}
	steps, _, err = decomposePool(5, []timing.Pair{{Src: 0, Dst: 1}, {Src: 2, Dst: 1}}, m, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != 2 {
		t.Errorf("conflicting edges should split: %v", steps)
	}
}

func TestDecomposePoolDuplicate(t *testing.T) {
	m := model.ExampleMatrix()
	if _, _, err := decomposePool(5, []timing.Pair{{Src: 0, Dst: 1}, {Src: 0, Dst: 1}}, m, true); err == nil {
		t.Error("duplicate pool edge accepted")
	}
}
