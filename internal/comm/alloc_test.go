package comm

import (
	"math/rand"
	"testing"
	"time"

	"hetsched/internal/model"
	"hetsched/internal/netmodel"
)

// TestRepeatedScratchZeroAlloc pins the unchanged repeated round at
// P = 50 — source snapshot, model build, memo recognition, result
// assembly — to zero heap allocations.
func TestRepeatedScratchZeroAlloc(t *testing.T) {
	if raceEnabled {
		// -race instrumentation changes escape analysis; allocation
		// counts are meaningless under it, so asserting here would only
		// produce noise. This is a skip, not a pass: the !race CI step
		// runs this test for real on every push (see
		// .github/workflows/ci.yml), and `go test ./internal/comm/`
		// locally does too.
		t.Skip("allocation counts are not meaningful under -race")
	}
	n := 50
	perf := netmodel.RandomPerf(rand.New(rand.NewSource(4)), n, netmodel.GustoGuided())
	// The source returns the same table without cloning: the
	// communicator never mutates what it is served, and a cloning
	// source would charge its own allocations to the replan path.
	src := func() (*netmodel.Perf, error) { return perf, nil }
	t0 := time.Unix(1000, 0)
	c, err := New(n, src, Config{Clock: func() time.Time { return t0 }})
	if err != nil {
		t.Fatal(err)
	}
	sizes := model.UniformSizes(n, 1<<16)
	var sc PlanScratch
	for i := 0; i < 2; i++ {
		if _, err := c.AllToAllRepeatedScratch(sizes, &sc); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := c.AllToAllRepeatedScratch(sizes, &sc); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("unchanged AllToAllRepeatedScratch at P=%d: %v allocs/op, want 0 — "+
			"check PlanScratch buffer reuse and the Equal short circuits", n, allocs)
	}
}
