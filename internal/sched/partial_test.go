package sched

import (
	"math/rand"
	"testing"
	"testing/quick"

	"hetsched/internal/model"
	"hetsched/internal/timing"
)

// randPattern draws a random all-to-some pattern: each pair included
// with probability q.
func randPattern(rng *rand.Rand, n int, q float64) Pattern {
	var p Pattern
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && rng.Float64() < q {
				p = append(p, timing.Pair{Src: i, Dst: j})
			}
		}
	}
	return p
}

func TestPatternValidate(t *testing.T) {
	good := Pattern{{Src: 0, Dst: 1}, {Src: 1, Dst: 0}}
	if err := good.Validate(2); err != nil {
		t.Fatal(err)
	}
	cases := []Pattern{
		{{Src: 0, Dst: 2}},                   // out of range
		{{Src: 1, Dst: 1}},                   // self
		{{Src: 0, Dst: 1}, {Src: 0, Dst: 1}}, // duplicate
	}
	for k, p := range cases {
		if err := p.Validate(2); err == nil {
			t.Errorf("case %d accepted", k)
		}
	}
}

func TestTotalExchangePattern(t *testing.T) {
	p := TotalExchangePattern(4)
	if len(p) != 12 {
		t.Fatalf("pattern size %d", len(p))
	}
	if err := p.Validate(4); err != nil {
		t.Fatal(err)
	}
}

func TestPatternLowerBound(t *testing.T) {
	m := model.ExampleMatrix()
	// Full pattern reduces to the matrix lower bound.
	if got, want := PatternLowerBound(m, TotalExchangePattern(5)), m.LowerBound(); got != want {
		t.Errorf("full-pattern LB = %g, want %g", got, want)
	}
	// A single pair's bound is its own duration.
	if got := PatternLowerBound(m, Pattern{{Src: 1, Dst: 2}}); got != m.At(1, 2) {
		t.Errorf("single-pair LB = %g", got)
	}
	if PatternLowerBound(m, nil) != 0 {
		t.Error("empty pattern LB should be 0")
	}
}

func TestPartialSchedulersValidAndBounded(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(8)
		m := randMatrix(t, seed*31, n, 1<<20)
		p := randPattern(rng, n, 0.4)
		r, err := PartialOpenShop(m, p)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(r.Schedule.Events) != len(p) {
			t.Fatalf("seed %d: %d events for %d-pair pattern", seed, len(r.Schedule.Events), len(p))
		}
		lb := PatternLowerBound(m, p)
		if r.CompletionTime() < lb-1e-9 {
			t.Fatalf("seed %d: beats the pattern lower bound", seed)
		}
		if r.CompletionTime() > 2*lb*(1+1e-9) {
			t.Fatalf("seed %d: exceeds 2× pattern bound", seed)
		}
	}
}

func TestPartialReducesToTotalExchange(t *testing.T) {
	// On the full pattern the partial open shop must equal the
	// dedicated total-exchange open shop (same greedy decisions).
	m := randMatrix(t, 77, 9, 1<<20)
	full, err := NewOpenShop().Schedule(m)
	if err != nil {
		t.Fatal(err)
	}
	part, err := PartialOpenShop(m, TotalExchangePattern(9))
	if err != nil {
		t.Fatal(err)
	}
	if full.CompletionTime() != part.CompletionTime() {
		t.Errorf("partial openshop on full pattern: %g, dedicated: %g",
			part.CompletionTime(), full.CompletionTime())
	}
}

func TestPartialEmptyPattern(t *testing.T) {
	r, err := PartialOpenShop(model.ExampleMatrix(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Schedule.Events) != 0 || r.CompletionTime() != 0 {
		t.Error("empty pattern should schedule nothing")
	}
}

func TestPartialSingleSenderSerializes(t *testing.T) {
	// One sender to many receivers: completion must equal its row load.
	m := randMatrix(t, 5, 6, 1<<20)
	p := Pattern{{Src: 2, Dst: 0}, {Src: 2, Dst: 1}, {Src: 2, Dst: 3}, {Src: 2, Dst: 4}, {Src: 2, Dst: 5}}
	want := 0.0
	for _, pr := range p {
		want += m.At(pr.Src, pr.Dst)
	}
	r, err := PartialOpenShop(m, p)
	if err != nil {
		t.Fatal(err)
	}
	if diff := r.CompletionTime() - want; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("%s: completion %g, want serialized %g", r.Algorithm, r.CompletionTime(), want)
	}
}

func TestPartialPatternProperty(t *testing.T) {
	// Property: for random patterns the partial open shop produces a
	// schedule whose events exactly cover the pattern and never overlap
	// per sender or receiver.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(7)
		m := model.NewMatrix(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j {
					m.Set(i, j, rng.Float64()*10)
				}
			}
		}
		p := randPattern(rng, n, 0.5)
		r, err := PartialOpenShop(m, p)
		return err == nil && checkPatternSchedule(r.Schedule, m, p) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestPartialRejectsBadPattern(t *testing.T) {
	if _, err := PartialOpenShop(model.ExampleMatrix(), Pattern{{Src: 0, Dst: 9}}); err == nil {
		t.Error("openshop accepted bad pattern")
	}
}
