package model

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"hetsched/internal/netmodel"
)

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(3)
	m.Set(0, 1, 2.5)
	if m.At(0, 1) != 2.5 {
		t.Fatal("Set/At round trip failed")
	}
	c := m.Clone()
	c.Set(0, 1, 9)
	if m.At(0, 1) != 2.5 {
		t.Error("Clone not independent")
	}
	if m.N() != 3 {
		t.Error("N wrong")
	}
}

func TestMatrixValidate(t *testing.T) {
	m := NewMatrix(2)
	m.Set(0, 1, 1)
	m.Set(1, 0, 2)
	if err := m.Validate(); err != nil {
		t.Fatalf("valid matrix rejected: %v", err)
	}
	bad := m.Clone()
	bad.Set(0, 1, -1)
	if err := bad.Validate(); err == nil {
		t.Error("negative entry accepted")
	}
	bad = m.Clone()
	bad.Set(0, 0, 1)
	if err := bad.Validate(); err == nil {
		t.Error("nonzero diagonal accepted")
	}
	bad = m.Clone()
	bad.Set(1, 0, math.NaN())
	if err := bad.Validate(); err == nil {
		t.Error("NaN accepted")
	}
}

func TestRowColSums(t *testing.T) {
	m := ExampleMatrix()
	// Row 1 of the example: 1 + 5 + 3 + 2 = 11.
	if got := m.RowSum(1); got != 11 {
		t.Errorf("RowSum(1) = %g, want 11", got)
	}
	// Column 2: 1 + 5 + 2 + 1 = 9.
	if got := m.ColSum(2); got != 9 {
		t.Errorf("ColSum(2) = %g, want 9", got)
	}
}

func TestLowerBound(t *testing.T) {
	m := ExampleMatrix()
	// Hand-computed: row sums are 8, 11, 11, 5, 8; column sums are
	// 7, 10, 9, 8, 9. Max is 11.
	if got := m.LowerBound(); got != 11 {
		t.Errorf("LowerBound = %g, want 11", got)
	}
}

func TestLowerBoundDominance(t *testing.T) {
	// Property: t_lb >= every individual entry and t_lb <= total volume.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(10)
		m := NewMatrix(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j {
					m.Set(i, j, rng.Float64()*100)
				}
			}
		}
		lb := m.LowerBound()
		if lb > m.TotalVolume()+1e-9 {
			return false
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j && m.At(i, j) > lb+1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestTotalVolume(t *testing.T) {
	m := ExampleMatrix()
	if got := m.TotalVolume(); got != 43 {
		t.Errorf("TotalVolume = %g, want 43", got)
	}
}

func TestTranspose(t *testing.T) {
	m := ExampleMatrix()
	tr := m.Transpose()
	for i := 0; i < m.N(); i++ {
		for j := 0; j < m.N(); j++ {
			if m.At(i, j) != tr.At(j, i) {
				t.Fatalf("transpose mismatch at (%d,%d)", i, j)
			}
		}
	}
	again := tr.Transpose()
	for i := 0; i < m.N(); i++ {
		for j := 0; j < m.N(); j++ {
			if m.At(i, j) != again.At(i, j) {
				t.Fatal("double transpose is not identity")
			}
		}
	}
}

func TestRowsCopies(t *testing.T) {
	m := ExampleMatrix()
	rows := m.Rows()
	rows[0][1] = 999
	if m.At(0, 1) == 999 {
		t.Error("Rows leaked internal state")
	}
}

func TestSizes(t *testing.T) {
	s := UniformSizes(4, 1024)
	if s.At(0, 0) != 0 {
		t.Error("diagonal size should be 0")
	}
	if s.At(1, 2) != 1024 {
		t.Error("uniform size not set")
	}
	if s.TotalBytes() != 1024*12 {
		t.Errorf("TotalBytes = %d, want %d", s.TotalBytes(), 1024*12)
	}
	c := s.Clone()
	c.Set(1, 2, 5)
	if s.At(1, 2) != 1024 {
		t.Error("Clone not independent")
	}
}

func TestBuildFromGusto(t *testing.T) {
	perf := netmodel.Gusto()
	m, err := BuildUniform(perf, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if m.N() != 5 {
		t.Fatalf("N = %d", m.N())
	}
	// AMES -> USC-ISI: 12 ms + 1 MiB / (2044 kbit/s).
	want := 0.012 + float64(1<<20)/(2044*125)
	if got := m.At(0, 3); math.Abs(got-want) > 1e-9 {
		t.Errorf("C[0][3] = %g, want %g", got, want)
	}
	if m.At(2, 2) != 0 {
		t.Error("diagonal must be zero")
	}
}

func TestBuildShapeMismatch(t *testing.T) {
	if _, err := Build(netmodel.Gusto(), NewSizes(4)); err == nil {
		t.Error("shape mismatch accepted")
	}
}

func TestBuildMonotoneInSize(t *testing.T) {
	perf := netmodel.Gusto()
	small, err := BuildUniform(perf, 1024)
	if err != nil {
		t.Fatal(err)
	}
	large, err := BuildUniform(perf, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			if i != j && large.At(i, j) <= small.At(i, j) {
				t.Fatalf("larger message not slower at (%d,%d)", i, j)
			}
		}
	}
}

func TestFromRowsRejectsBadShapes(t *testing.T) {
	if _, err := FromRows([][]float64{{0, 1}, {1}}); err == nil {
		t.Error("ragged rows accepted")
	}
	if _, err := FromRows([][]float64{{1}}); err == nil {
		t.Error("nonzero diagonal accepted")
	}
}

func TestExampleMatrixProperties(t *testing.T) {
	m := ExampleMatrix()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.N() != 5 {
		t.Error("example should have 5 processors")
	}
}

func TestFormatParseRoundTrip(t *testing.T) {
	m := ExampleMatrix()
	s := FormatString(m)
	got, err := ParseString(s)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < m.N(); i++ {
		for j := 0; j < m.N(); j++ {
			if got.At(i, j) != m.At(i, j) {
				t.Fatalf("round trip mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestFormatParseRoundTripRandom(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		m := NewMatrix(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j {
					m.Set(i, j, rng.Float64()*1e3)
				}
			}
		}
		got, err := ParseString(FormatString(m))
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if got.At(i, j) != m.At(i, j) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestParseSkipsCommentsAndBlanks(t *testing.T) {
	src := "# communication matrix\n\n2\n# row 0\n0 1.5\n1.25 0\n"
	m, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	if m.At(0, 1) != 1.5 || m.At(1, 0) != 1.25 {
		t.Errorf("parsed wrong values: %v %v", m.At(0, 1), m.At(1, 0))
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",               // no size
		"x",              // bad size
		"-1",             // negative size
		"2\n0 1\n",       // missing row
		"2\n0 1 2\n1 0",  // wrong row width
		"2\n0 x\n1 0\n",  // bad number
		"2\n0 1\n1 0.5v", // trailing garbage in number
		"1 2",            // size line with extra fields
		"2\n0 -1\n1 0\n", // invalid matrix (negative)
	}
	for _, src := range cases {
		if _, err := ParseString(src); err == nil {
			t.Errorf("ParseString(%q) accepted invalid input", src)
		}
	}
}

func TestParseZeroSize(t *testing.T) {
	m, err := ParseString("0\n")
	if err != nil {
		t.Fatal(err)
	}
	if m.N() != 0 {
		t.Error("zero-size matrix should parse")
	}
}

func TestFormatWriterError(t *testing.T) {
	// Format into a writer that always fails must surface the error.
	if err := Format(failWriter{}, ExampleMatrix()); err == nil {
		t.Error("Format ignored writer error")
	}
}

type failWriter struct{}

func (failWriter) Write(p []byte) (int, error) { return 0, errFail }

var errFail = &writeError{}

type writeError struct{}

func (*writeError) Error() string { return "write failed" }

func TestParseLargeMatrix(t *testing.T) {
	n := 40
	m := NewMatrix(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				m.Set(i, j, float64(i*n+j)/7)
			}
		}
	}
	got, err := ParseString(FormatString(m))
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != n || got.At(n-1, 0) != m.At(n-1, 0) {
		t.Error("large matrix round trip failed")
	}
}

func TestParseRejectsHugeSize(t *testing.T) {
	// Regression for a fuzz finding: an absurd size line must error,
	// not panic in allocation.
	if _, err := ParseString("00000000000000010000000000000000\n"); err == nil {
		t.Error("huge size accepted")
	}
	if _, err := ParseString("5000\n"); err == nil {
		t.Error("size beyond MaxProcessors accepted")
	}
}

func TestNewMatrixNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewMatrix(-1) did not panic")
		}
	}()
	NewMatrix(-1)
}

func TestNewSizesNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewSizes(-1) did not panic")
		}
	}()
	NewSizes(-1)
}
