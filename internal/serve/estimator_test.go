package serve

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"hetsched/internal/leakcheck"
)

func TestEstimatorEmptyIsZero(t *testing.T) {
	e := newCostEstimator()
	if got := e.p95(); got != 0 {
		t.Fatalf("empty estimator returned %v", got)
	}
}

func TestEstimatorP95Rank(t *testing.T) {
	e := newCostEstimator()
	for i := 1; i <= 100; i++ {
		e.observe(time.Duration(i) * time.Millisecond)
	}
	if got, want := e.p95(), 95*time.Millisecond; got != want {
		t.Fatalf("p95 over 1..100ms = %v, want %v", got, want)
	}
}

func TestEstimatorSingleSample(t *testing.T) {
	e := newCostEstimator()
	e.observe(7 * time.Millisecond)
	if got, want := e.p95(), 7*time.Millisecond; got != want {
		t.Fatalf("p95 of one sample = %v, want %v", got, want)
	}
}

// TestEstimatorTracksRegimeChange: the ring forgets old samples, so
// after a full window of the new regime the estimate reflects only it.
func TestEstimatorTracksRegimeChange(t *testing.T) {
	e := newCostEstimator()
	for i := 0; i < estimatorWindow; i++ {
		e.observe(time.Millisecond)
	}
	for i := 0; i < estimatorWindow; i++ {
		e.observe(10 * time.Millisecond)
	}
	if got, want := e.p95(), 10*time.Millisecond; got != want {
		t.Fatalf("p95 after regime change = %v, want %v", got, want)
	}
}

func TestEstimatorClampsNegative(t *testing.T) {
	e := newCostEstimator()
	e.observe(-time.Second)
	if got := e.p95(); got != 0 {
		t.Fatalf("negative sample produced p95 %v", got)
	}
}

// TestEstimatorMatchesNearestRank: over several windows of
// observations, with duplicates and evictions, p95 and p99 equal the
// nearest-rank percentiles of a sorted copy of the last window, and
// reading them allocates nothing.
func TestEstimatorMatchesNearestRank(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	e := newCostEstimator()
	var seen []time.Duration
	nearest := func(q int) time.Duration {
		w := seen
		if len(w) > estimatorWindow {
			w = w[len(w)-estimatorWindow:]
		}
		s := slices.Clone(w)
		slices.Sort(s)
		k := max((q*len(s)+99)/100, 1)
		return s[k-1]
	}
	for i := 0; i < 3*estimatorWindow+17; i++ {
		// A small range forces duplicates, some of them evicted while
		// an equal sample stays in the window.
		d := time.Duration(rng.Intn(40)) * time.Millisecond
		if i%50 == 0 {
			d = -time.Millisecond // clamps to 0
		}
		e.observe(d)
		seen = append(seen, max(d, 0))
		for _, q := range []int{95, 99} {
			if got, want := e.quantile(q), nearest(q); got != want {
				t.Fatalf("after %d samples: p%d = %v, nearest rank says %v", i+1, q, got, want)
			}
		}
	}
	if leakcheck.RaceEnabled {
		return // the race detector instruments allocations
	}
	if got := testing.AllocsPerRun(100, func() { e.p95() }); got != 0 {
		t.Errorf("p95: %v allocs per call, want 0", got)
	}
	if got := testing.AllocsPerRun(100, func() { e.observe(time.Millisecond) }); got != 0 {
		t.Errorf("observe: %v allocs per call, want 0", got)
	}
}
