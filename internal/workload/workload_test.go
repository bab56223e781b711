package workload

import (
	"math/rand"
	"testing"

	"hetsched/internal/model"
)

func TestKindString(t *testing.T) {
	names := map[Kind]string{Small: "small", Large: "large", Mixed: "mixed", Servers: "servers"}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("%v.String() = %q, want %q", int(k), k.String(), want)
		}
	}
	if Kind(42).String() == "" {
		t.Error("unknown kind should still stringify")
	}
	if len(Kinds()) != 4 {
		t.Error("Kinds should list the four figures")
	}
}

func TestDefaultSpec(t *testing.T) {
	sp := DefaultSpec(Servers, 20)
	if sp.SmallSize != 1<<10 || sp.LargeSize != 1<<20 {
		t.Error("default sizes should be 1kB and 1MB")
	}
	if sp.NumServers() != 4 {
		t.Errorf("NumServers = %d, want 4 (20%% of 20)", sp.NumServers())
	}
}

func TestNumServersEdgeCases(t *testing.T) {
	sp := DefaultSpec(Servers, 3)
	if sp.NumServers() != 1 {
		t.Errorf("small systems should still get one server, got %d", sp.NumServers())
	}
	sp.ServerFraction = 0
	if sp.NumServers() != 0 {
		t.Error("zero fraction should mean zero servers")
	}
	sp = DefaultSpec(Servers, 0)
	if sp.NumServers() != 0 {
		t.Error("empty system has no servers")
	}
	sp = DefaultSpec(Servers, 2)
	sp.ServerFraction = 5
	if sp.NumServers() != 2 {
		t.Error("fraction above 1 clamps to N")
	}
}

func TestSizesSmallLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	small := Sizes(rng, DefaultSpec(Small, 6))
	large := Sizes(rng, DefaultSpec(Large, 6))
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			if i == j {
				continue
			}
			if small.At(i, j) != SmallMessage {
				t.Fatalf("small workload has size %d at (%d,%d)", small.At(i, j), i, j)
			}
			if large.At(i, j) != LargeMessage {
				t.Fatalf("large workload has size %d at (%d,%d)", large.At(i, j), i, j)
			}
		}
	}
}

func TestSizesMixed(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	s := Sizes(rng, DefaultSpec(Mixed, 20))
	counts := map[int64]int{}
	for i := 0; i < 20; i++ {
		for j := 0; j < 20; j++ {
			if i != j {
				counts[s.At(i, j)]++
			}
		}
	}
	if len(counts) != 2 {
		t.Fatalf("mixed workload has %d distinct sizes, want 2", len(counts))
	}
	total := counts[SmallMessage] + counts[LargeMessage]
	if total != 380 {
		t.Fatalf("mixed workload covered %d pairs, want 380", total)
	}
	// With p = 0.5 over 380 messages, each class should be well away
	// from zero.
	if counts[SmallMessage] < 100 || counts[LargeMessage] < 100 {
		t.Errorf("mix is badly skewed: %v", counts)
	}
}

func TestSizesMixedProbabilityExtremes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	sp := DefaultSpec(Mixed, 8)
	sp.MixLargeProb = 0
	s := Sizes(rng, sp)
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			if i != j && s.At(i, j) != SmallMessage {
				t.Fatal("prob 0 should give all small")
			}
		}
	}
	sp.MixLargeProb = 1
	s = Sizes(rng, sp)
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			if i != j && s.At(i, j) != LargeMessage {
				t.Fatal("prob 1 should give all large")
			}
		}
	}
}

func TestSizesServers(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	sp := DefaultSpec(Servers, 10)
	s := Sizes(rng, sp)
	ns := sp.NumServers() // 2
	for i := 0; i < 10; i++ {
		for j := 0; j < 10; j++ {
			if i == j {
				continue
			}
			want := int64(SmallMessage)
			if i < ns && j >= ns {
				want = LargeMessage
			}
			if s.At(i, j) != want {
				t.Fatalf("servers workload size (%d,%d) = %d, want %d", i, j, s.At(i, j), want)
			}
		}
	}
}

func TestSizesDeterministic(t *testing.T) {
	a := Sizes(rand.New(rand.NewSource(9)), DefaultSpec(Mixed, 12))
	b := Sizes(rand.New(rand.NewSource(9)), DefaultSpec(Mixed, 12))
	for i := 0; i < 12; i++ {
		for j := 0; j < 12; j++ {
			if a.At(i, j) != b.At(i, j) {
				t.Fatal("same seed produced different mixed sizes")
			}
		}
	}
}

func TestProblem(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m, perf, sizes, err := Problem(rng, DefaultSpec(Mixed, 15))
	if err != nil {
		t.Fatal(err)
	}
	if m.N() != 15 || perf.N() != 15 || sizes.N() != 15 {
		t.Fatal("problem shapes disagree")
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	// The matrix must be consistent with perf and sizes.
	check, err := model.Build(perf, sizes)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 15; i++ {
		for j := 0; j < 15; j++ {
			if m.At(i, j) != check.At(i, j) {
				t.Fatal("problem matrix inconsistent with its parts")
			}
		}
	}
}

func TestTranspose(t *testing.T) {
	// 10×8 matrix of 4-byte elements over 4 processors: row bands are
	// 3,3,2,2; column bands 2,2,2,2.
	s, err := Transpose(4, 10, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.At(0, 1); got != 3*2*4 {
		t.Errorf("size(0,1) = %d, want 24", got)
	}
	if got := s.At(3, 1); got != 2*2*4 {
		t.Errorf("size(3,1) = %d, want 16", got)
	}
	if s.At(2, 2) != 0 {
		t.Error("diagonal must be zero")
	}
}

func TestTransposeConservation(t *testing.T) {
	// Total bytes moved = all elements except the diagonal blocks.
	p, rows, cols := 5, 13, 7
	var elem int64 = 8
	s, err := Transpose(p, rows, cols, elem)
	if err != nil {
		t.Fatal(err)
	}
	band := func(total, who int) int64 {
		base := total / p
		if who < total%p {
			return int64(base + 1)
		}
		return int64(base)
	}
	var diag int64
	for i := 0; i < p; i++ {
		diag += band(rows, i) * band(cols, i) * elem
	}
	want := int64(rows)*int64(cols)*elem - diag
	if got := s.TotalBytes(); got != want {
		t.Errorf("TotalBytes = %d, want %d", got, want)
	}
}

func TestTransposeErrors(t *testing.T) {
	if _, err := Transpose(0, 4, 4, 1); err == nil {
		t.Error("p=0 accepted")
	}
	if _, err := Transpose(4, -1, 4, 1); err == nil {
		t.Error("negative rows accepted")
	}
	if _, err := Transpose(4, 4, 4, -1); err == nil {
		t.Error("negative element size accepted")
	}
}

func TestTransposeMoreProcessorsThanRows(t *testing.T) {
	s, err := Transpose(6, 2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Processors beyond the first two own no rows; their sends are 0.
	if s.At(5, 0) != 0 {
		t.Error("row-less processor should send nothing")
	}
	if s.At(0, 1) != 1 {
		t.Errorf("size(0,1) = %d, want 1", s.At(0, 1))
	}
}
