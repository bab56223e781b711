package model

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"hetsched/internal/leakcheck"
	"hetsched/internal/netmodel"
)

// TestMatrixEqual pins exact-equality semantics: the replan fast path
// uses Equal to recognize an unchanged model, so any entry change must
// read as "not equal".
func TestMatrixEqual(t *testing.T) {
	m := ExampleMatrix()
	if !m.Equal(m) || !m.Equal(m.Clone()) {
		t.Fatal("matrix not equal to itself / its clone")
	}
	if m.Equal(nil) {
		t.Fatal("matrix equal to nil")
	}
	if m.Equal(NewMatrix(m.N() - 1)) {
		t.Fatal("matrices of different sizes equal")
	}
	c := m.Clone()
	c.Set(1, 3, math.Nextafter(c.At(1, 3), math.Inf(1)))
	if m.Equal(c) {
		t.Fatal("one-ulp entry change not detected")
	}
}

// TestMatrixReset checks Reset zeroes in place, reusing storage when
// it can and growing when it must.
func TestMatrixReset(t *testing.T) {
	m := ExampleMatrix()
	m.Reset(3)
	if m.N() != 3 {
		t.Fatalf("N = %d after Reset(3)", m.N())
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if m.At(i, j) != 0 {
				t.Fatalf("entry (%d,%d) = %v after Reset", i, j, m.At(i, j))
			}
		}
	}
	m.Reset(7)
	if m.N() != 7 || m.At(6, 6) != 0 {
		t.Fatal("Reset did not grow cleanly")
	}
}

// TestBuildIntoMatchesBuild pins BuildInto's destination reuse: a
// destination that held a larger matrix is fully overwritten, not
// merged, and comes out equal to a fresh Build; shape and validation
// errors are reported.
func TestBuildIntoMatchesBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var dst Matrix
	for _, n := range []int{1, 2, 5, 12} {
		perf := netmodel.RandomPerf(rng, n, netmodel.GustoGuided())
		sizes := NewSizes(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j {
					sizes.Set(i, j, rng.Int63n(1<<20))
				}
			}
		}
		if err := BuildInto(&dst, perf, sizes); err != nil {
			t.Fatal(err)
		}
		if dst.N() != n || dst.At(0, 0) != 0 {
			t.Fatalf("n=%d: built a %d×%d matrix", n, dst.N(), dst.N())
		}
		if n > 2 {
			small := netmodel.RandomPerf(rng, 2, netmodel.GustoGuided())
			fresh, err := BuildUniform(small, 1<<10)
			if err != nil {
				t.Fatal(err)
			}
			if err := BuildInto(&dst, small, UniformSizes(2, 1<<10)); err != nil {
				t.Fatal(err)
			}
			if !fresh.Equal(&dst) {
				t.Fatal("BuildInto into a larger destination differs from a fresh build")
			}
		}
	}
	perf := netmodel.RandomPerf(rng, 3, netmodel.GustoGuided())
	if err := BuildInto(&dst, perf, NewSizes(4)); err == nil || !strings.Contains(err.Error(), "sizes are 4×4") {
		t.Fatalf("shape mismatch: %v", err)
	}
	bad := perf.Clone()
	bad.Set(0, 1, netmodel.PairPerf{Latency: -5, Bandwidth: 1})
	if err := BuildInto(&dst, bad, UniformSizes(3, 1)); err == nil || !strings.Contains(err.Error(), "not a valid time") {
		t.Fatalf("invalid entry: %v", err)
	}
}

// TestBuildIntoErrorMatchesValidate: BuildInto checks entries as it
// writes them, and must name the same first invalid entry, in the same
// words, that Validate names on the fully written matrix — whatever the
// destination held before.
func TestBuildIntoErrorMatchesValidate(t *testing.T) {
	const n = 6
	base := netmodel.RandomPerf(rand.New(rand.NewSource(5)), n, netmodel.GustoGuided())
	sizes := UniformSizes(n, 1<<12)
	bad := map[string]netmodel.PairPerf{
		"NaN latency":    {Latency: math.NaN(), Bandwidth: 1e6},
		"zero bandwidth": {Latency: 1e-3, Bandwidth: 0},
		"negative":       {Latency: -1, Bandwidth: 1e6},
	}
	for name, pp := range bad {
		perf := base.Clone()
		perf.Set(4, 1, pp)
		perf.Set(2, 3, pp) // the first in row-major order
		perf.Set(2, 2, pp) // the diagonal is never read
		written := NewMatrix(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				written.Set(i, j, perf.TransferTime(i, j, sizes.At(i, j)))
			}
		}
		want := written.Validate()
		dst := NewMatrix(n) // full of stale, invalid entries
		for k := range dst.c {
			dst.c[k] = -7
		}
		err := BuildInto(dst, perf, sizes)
		if want == nil || err == nil || err.Error() != want.Error() {
			t.Errorf("%s: BuildInto said %v, Validate says %v", name, err, want)
		}
	}
}

// TestLowerBoundAllocatesNothing: up to 64 processors the column sums
// of LowerBound's single pass live on the stack.
func TestLowerBoundAllocatesNothing(t *testing.T) {
	if leakcheck.RaceEnabled {
		t.Skip("the race detector instruments allocations")
	}
	for _, n := range []int{2, 50, 64} {
		m := NewMatrix(n)
		if got := testing.AllocsPerRun(20, func() { m.LowerBound() }); got != 0 {
			t.Errorf("P=%d: LowerBound makes %v allocations, want 0", n, got)
		}
	}
}
