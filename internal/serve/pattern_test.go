package serve

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"hetsched/internal/directory"
	"hetsched/internal/leakcheck"
	"hetsched/internal/model"
)

// admit admits req on a daemon that plans for the request's own
// processor count.
func admit(req directory.PlanRequest) (pattern, error) {
	n := req.P
	if len(req.Sizes) > 0 {
		n = len(req.Sizes)
	}
	return admitPattern(req, n)
}

// fresh builds the pattern's matrix into scratch of its own.
func fresh(pt pattern) *model.Sizes { return pt.build(newPatternScratch(pt.p)) }

// referenceSizes is the pattern generator as it stood before workers
// kept scratch: a fresh matrix, a fresh generator, a closure per entry.
// The reused-scratch build must reproduce it entry for entry.
func referenceSizes(pt pattern) *model.Sizes {
	entry := func(i, j int) int64 { return pt.rows[i][j] }
	switch pt.kind {
	case directory.PatternUniform:
		entry = func(int, int) int64 { return pt.bytes }
	case directory.PatternRandom:
		rng := rand.New(rand.NewSource(pt.seed))
		entry = func(int, int) int64 { return 1 + rng.Int63n(pt.bytes) }
	case directory.PatternSkew:
		entry = func(i, _ int) int64 { return pt.bytes * int64(i+1) }
	}
	s := model.NewSizes(pt.p)
	for i := 0; i < pt.p; i++ {
		for j := 0; j < pt.p; j++ {
			if i != j {
				s.Set(i, j, entry(i, j))
			}
		}
	}
	return s
}

// TestScratchBuildMatchesReference: one worker's scratch, reused across
// every kind and seed in turn (so each build lands on a buffer the
// previous one — often of another kind — wrote), produces exactly the
// matrix a fresh generator would, diagonal included.
func TestScratchBuildMatchesReference(t *testing.T) {
	const p = 7
	seeds := []int64{0, -1, 1, 42, math.MaxInt64, math.MinInt64}
	var reqs []directory.PlanRequest
	for _, seed := range seeds {
		for _, kind := range []string{directory.PatternRandom, directory.PatternUniform,
			directory.PatternSkew} {
			reqs = append(reqs, directory.PlanRequest{P: p, Kind: kind, Bytes: 1<<20 + seed%1000, Seed: seed})
		}
		reqs = append(reqs, directory.PlanRequest{Sizes: explicitTable(p, seed)})
	}
	// Each request twice, in two orders: every kind follows every other.
	all := append(append([]directory.PlanRequest(nil), reqs...), reqs...)
	for i, j := 0, len(all)-1; i < len(reqs); i, j = i+1, j-1 {
		all[j] = reqs[i]
	}
	sc := newPatternScratch(p)
	for i, req := range all {
		pt, err := admit(req)
		if err != nil {
			t.Fatal(err)
		}
		got, want := pt.build(sc), referenceSizes(pt)
		if got != sc.sizes {
			t.Fatalf("build %d returned storage other than the scratch", i)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("build %d (kind %q, seed %d) differs from the reference", i, pt.kind, pt.seed)
		}
	}
}

func TestMaterializeDeterministic(t *testing.T) {
	req := directory.PlanRequest{P: 6, Kind: directory.PatternRandom, Bytes: 4096, Seed: 42}
	p1, err := admit(req)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := admit(req)
	if err != nil {
		t.Fatal(err)
	}
	if p1.key != p2.key {
		t.Fatalf("same spec keyed differently: %x vs %x", p1.key, p2.key)
	}
	if !reflect.DeepEqual(fresh(p1), fresh(p2)) {
		t.Fatal("same spec materialized different matrices")
	}
}

func TestMaterializeHashSeparatesSpecs(t *testing.T) {
	base := directory.PlanRequest{P: 4, Kind: directory.PatternUniform, Bytes: 1024}
	p0, err := admit(base)
	if err != nil {
		t.Fatal(err)
	}
	variants := []directory.PlanRequest{
		{P: 5, Kind: directory.PatternUniform, Bytes: 1024},
		{P: 4, Kind: directory.PatternUniform, Bytes: 2048},
		{P: 4, Kind: directory.PatternSkew, Bytes: 1024},
		{P: 4, Kind: directory.PatternRandom, Bytes: 1024, Seed: 1},
		{P: 4, Kind: directory.PatternRandom, Bytes: 1024, Seed: 2},
		{Sizes: [][]int64{{0, 1}, {2, 0}}},
		{Sizes: [][]int64{{0, 2}, {1, 0}}},
	}
	seen := map[[32]byte]bool{p0.key: true}
	for _, v := range variants {
		pt, err := admit(v)
		if err != nil {
			t.Fatal(err)
		}
		if seen[pt.key] {
			t.Fatalf("spec %+v collided with an earlier key", v)
		}
		seen[pt.key] = true
	}
	// The defaults are part of the pattern, not of its spelling.
	if pt, err := admit(directory.PlanRequest{P: 4}); err != nil || pt.key != p0.key {
		t.Fatalf("defaulted kind and bytes keyed apart from their spelled-out form (%v)", err)
	}
}

// TestMaterializeDomainSeparation: an explicit matrix with exactly the
// values a uniform shorthand would generate must still key
// differently — the two forms are different wire specs.
func TestMaterializeDomainSeparation(t *testing.T) {
	gen, err := admit(directory.PlanRequest{P: 3, Kind: directory.PatternUniform, Bytes: 7})
	if err != nil {
		t.Fatal(err)
	}
	exp, err := admit(directory.PlanRequest{Sizes: [][]int64{{0, 7, 7}, {7, 0, 7}, {7, 7, 0}}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh(gen), fresh(exp)) {
		t.Fatal("matrices should be identical")
	}
	if gen.key == exp.key {
		t.Fatal("explicit and generated specs share a key")
	}
}

func TestMaterializeRejects(t *testing.T) {
	cases := []directory.PlanRequest{
		{P: 1, Kind: directory.PatternUniform},                  // too small
		{P: 4, Kind: "fancy"},                                   // unknown kind
		{Sizes: [][]int64{{0, 1}}},                              // ragged
		{Sizes: [][]int64{{0, -1}, {1, 0}}},                     // negative
		{Sizes: [][]int64{{5, 1}, {1, 0}}},                      // nonzero diagonal
		{Sizes: [][]int64{{0}}},                                 // 1x1
		{Sizes: [][]int64{{0, 1, 1}, {1, 0, 1}, {1, 1, 0}, {}}}, // ragged tall
	}
	for i, req := range cases {
		if _, err := admit(req); err == nil {
			t.Errorf("case %d (%+v): expected an error", i, req)
		}
	}
}

// TestSkewOverflowRejected: kind=skew multiplies bytes by up to p, and a
// product past int64 used to wrap into negative and zero sizes that
// were planned and served as healthy.
func TestSkewOverflowRejected(t *testing.T) {
	for _, bytes := range []int64{1 << 61, 1 << 62, math.MaxInt64} {
		for _, p := range []int{2, 4, 50} {
			fits := bytes <= math.MaxInt64/int64(p) // only 2^61 × 2
			pt, err := admit(directory.PlanRequest{P: p, Kind: directory.PatternSkew, Bytes: bytes})
			switch {
			case fits && err != nil:
				t.Errorf("bytes=%d p=%d fits int64 but was refused: %v", bytes, p, err)
			case !fits && (err == nil || !strings.Contains(err.Error(), "overflow")):
				t.Errorf("bytes=%d p=%d overflows int64 but admitPattern said %v", bytes, p, err)
			case fits:
				s := fresh(pt)
				for i := 0; i < p; i++ {
					for j := 0; j < p; j++ {
						if want := bytes * int64(i+1); i != j && s.At(i, j) != want {
							t.Errorf("bytes=%d p=%d: size (%d,%d) = %d, want %d", bytes, p, i, j, s.At(i, j), want)
						}
					}
				}
			}
		}
	}
	// Through the daemon: a request error, never a flight.
	d := newTestDaemon(t, 4, okSource(4), nil, Config{})
	resp := d.Plan(context.Background(), directory.PlanRequest{P: 4, Kind: directory.PatternSkew, Bytes: 1 << 62})
	if resp.OK || resp.Status != "" || !strings.Contains(resp.Error, "overflow") {
		t.Errorf("overflowing skew answered %+v, want a request error", resp)
	}
	if st := d.Snapshot(); st.Admitted != 0 || st.Rejected != 1 {
		t.Errorf("overflowing skew: admitted %d, rejected %d; want 0 and 1", st.Admitted, st.Rejected)
	}
}

// TestAdmitPatternAllocatesNothing: the key step runs on every request,
// hits included, and bench/'s allocs_per_op bound leaves no room for
// one allocation in it.
func TestAdmitPatternAllocatesNothing(t *testing.T) {
	if leakcheck.RaceEnabled {
		t.Skip("race detector instruments allocations")
	}
	spec := directory.PlanRequest{P: 50, Kind: directory.PatternRandom, Bytes: 1 << 16, Seed: 7}
	table := directory.PlanRequest{Sizes: explicitTable(50, 7)}
	for name, req := range map[string]directory.PlanRequest{"spec": spec, "table": table} {
		if got := testing.AllocsPerRun(100, func() {
			if _, err := admit(req); err != nil {
				t.Fatal(err)
			}
		}); got != 0 {
			t.Errorf("admitPattern(%s): %v allocs per call, want 0", name, got)
		}
	}
}
