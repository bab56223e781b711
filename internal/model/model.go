// Package model implements the paper's analytical communication model.
//
// The network performance between a processor pair (Pi, Pj) is
// abstracted by a start-up cost Tij and a transmission rate Bij; an
// m-byte message takes Tij + m/Bij seconds (Section 3.2). Given a
// pairwise performance table from the directory service and the
// application's message sizes, the model produces a communication
// matrix C where C[i][j] is the predicted time of the message from Pi
// to Pj. All scheduling algorithms consume this matrix.
//
// Orientation note: the paper's C is receiver-major (C[i][j] is the
// message from Pj to Pi). This library uses sender-major C[i][j] = time
// of the message from Pi to Pj, the transpose of the paper's matrix.
// Row i therefore sums the sends of Pi and column j the receives of Pj.
package model

import (
	"fmt"
	"math"

	"hetsched/internal/netmodel"
)

// MaxProcessors bounds matrix sizes accepted from external input
// (files, network). A 4096-processor matrix already holds 16.7M
// entries; anything larger in a text file is corrupt or hostile.
const MaxProcessors = 4096

// Matrix is a dense P×P communication-time matrix. Entry (i, j) is the
// modelled time in seconds of the message from sender i to receiver j.
// The diagonal is zero by the paper's convention (local copies are
// negligible).
type Matrix struct {
	n int
	c []float64 // row-major
}

// NewMatrix returns a zero P×P matrix.
func NewMatrix(n int) *Matrix {
	if n < 0 {
		panic(fmt.Sprintf("model: negative size %d", n))
	}
	return &Matrix{n: n, c: make([]float64, n*n)}
}

// N returns the number of processors.
func (m *Matrix) N() int { return m.n }

// At returns the time of the message from i to j.
func (m *Matrix) At(i, j int) float64 { return m.c[i*m.n+j] }

// Set records the time of the message from i to j.
func (m *Matrix) Set(i, j int, t float64) { m.c[i*m.n+j] = t }

// Row returns the send times of processor i, indexed by receiver, as a
// view of the matrix's own storage. It is read-only: inner loops use it
// to skip At's index arithmetic, and writing through it is Set without
// the name.
func (m *Matrix) Row(i int) []float64 { return m.c[i*m.n : (i+1)*m.n : (i+1)*m.n] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.n)
	copy(c.c, m.c)
	return c
}

// Equal reports whether two matrices have the same shape and identical
// entries (by float64 equality; valid matrices contain no NaNs). The
// repeated-exchange memo uses Equal to recognize an unchanged model, so
// "unsure" must read as "not equal".
func (m *Matrix) Equal(o *Matrix) bool {
	if o == nil || m.n != o.n {
		return false
	}
	for k := range m.c {
		if m.c[k] != o.c[k] {
			return false
		}
	}
	return true
}

// Reset resizes the matrix to n×n and zeroes every entry, reusing the
// backing array when it is large enough.
func (m *Matrix) Reset(n int) {
	m.resize(n)
	clear(m.c)
}

// resize makes the matrix n×n, reusing the backing array when it is
// large enough. Entries keep whatever the array held.
func (m *Matrix) resize(n int) {
	if n < 0 {
		panic(fmt.Sprintf("model: negative size %d", n))
	}
	if cap(m.c) < n*n {
		m.c = make([]float64, n*n)
	} else {
		m.c = m.c[:n*n]
	}
	m.n = n
}

// validTime reports whether t can be a message time: finite and
// non-negative.
func validTime(t float64) bool { return !math.IsNaN(t) && !math.IsInf(t, 0) && t >= 0 }

// invalidEntry is the error for an entry validTime rejects.
func invalidEntry(i, j int, t float64) error {
	return fmt.Errorf("model: entry (%d,%d) = %v is not a valid time", i, j, t)
}

// Validate checks that all entries are finite and non-negative and the
// diagonal is zero.
func (m *Matrix) Validate() error {
	for i := 0; i < m.n; i++ {
		for j := 0; j < m.n; j++ {
			t := m.At(i, j)
			if !validTime(t) {
				return invalidEntry(i, j, t)
			}
			if i == j && t != 0 {
				return fmt.Errorf("model: diagonal entry (%d,%d) = %v, want 0", i, j, t)
			}
		}
	}
	return nil
}

// RowSum returns the total send time of processor i (the diagonal is
// excluded, though it is zero for valid matrices).
func (m *Matrix) RowSum(i int) float64 {
	sum := 0.0
	for j := 0; j < m.n; j++ {
		if j != i {
			sum += m.At(i, j)
		}
	}
	return sum
}

// ColSum returns the total receive time of processor j.
func (m *Matrix) ColSum(j int) float64 {
	sum := 0.0
	for i := 0; i < m.n; i++ {
		if i != j {
			sum += m.At(i, j)
		}
	}
	return sum
}

// LowerBound returns t_lb, the paper's lower bound on the completion
// time of any total-exchange schedule: the largest total send or
// receive time at any single processor. No schedule can beat it
// because a processor performs at most one send and one receive at a
// time.
//
// It is one row-major pass that carries the column sums along. Every
// row and every column is summed in the order RowSum and ColSum use,
// so the bound is bit-identical to the largest of those; up to 64
// processors the column sums live on the stack.
func (m *Matrix) LowerBound() float64 {
	var buf [64]float64
	var cols []float64
	if m.n <= len(buf) {
		cols = buf[:m.n]
	} else {
		cols = make([]float64, m.n)
	}
	lb := 0.0
	for i := 0; i < m.n; i++ {
		sum := 0.0
		for j, t := range m.Row(i) {
			if j != i {
				sum += t
				cols[j] += t
			}
		}
		if sum > lb {
			lb = sum
		}
	}
	for _, sum := range cols {
		if sum > lb {
			lb = sum
		}
	}
	return lb
}

// TotalVolume returns the sum of all off-diagonal entries: the serial
// time of performing every event back to back.
func (m *Matrix) TotalVolume() float64 {
	sum := 0.0
	for i := 0; i < m.n; i++ {
		sum += m.RowSum(i)
	}
	return sum
}

// Transpose returns the transposed matrix, converting between this
// library's sender-major convention and the paper's receiver-major one.
func (m *Matrix) Transpose() *Matrix {
	t := NewMatrix(m.n)
	for i := 0; i < m.n; i++ {
		for j := 0; j < m.n; j++ {
			t.Set(j, i, m.At(i, j))
		}
	}
	return t
}

// Rows returns the matrix as a freshly allocated [][]float64, the shape
// the assignment solvers consume.
func (m *Matrix) Rows() [][]float64 {
	rows := make([][]float64, m.n)
	for i := range rows {
		rows[i] = make([]float64, m.n)
		for j := range rows[i] {
			rows[i][j] = m.At(i, j)
		}
	}
	return rows
}

// Sizes is a dense P×P message-size matrix in bytes. Entry (i, j) is
// the size of the personalized message from i to j in a total
// exchange. The diagonal is ignored.
type Sizes struct {
	n int
	s []int64
}

// NewSizes returns a zero P×P size matrix.
func NewSizes(n int) *Sizes {
	if n < 0 {
		panic(fmt.Sprintf("model: negative size %d", n))
	}
	return &Sizes{n: n, s: make([]int64, n*n)}
}

// UniformSizes returns a size matrix with every off-diagonal message of
// the given size.
func UniformSizes(n int, size int64) *Sizes {
	s := NewSizes(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				s.Set(i, j, size)
			}
		}
	}
	return s
}

// N returns the number of processors.
func (s *Sizes) N() int { return s.n }

// At returns the size of the message from i to j.
func (s *Sizes) At(i, j int) int64 { return s.s[i*s.n+j] }

// Set records the size of the message from i to j.
func (s *Sizes) Set(i, j int, size int64) { s.s[i*s.n+j] = size }

// Clone returns a deep copy.
func (s *Sizes) Clone() *Sizes {
	c := NewSizes(s.n)
	copy(c.s, s.s)
	return c
}

// TotalBytes returns the sum of all off-diagonal message sizes.
func (s *Sizes) TotalBytes() int64 {
	var sum int64
	for i := 0; i < s.n; i++ {
		for j := 0; j < s.n; j++ {
			if i != j {
				sum += s.At(i, j)
			}
		}
	}
	return sum
}

// Build constructs the communication matrix from a pairwise performance
// table and message sizes: C[i][j] = Tij + size(i,j)/Bij, with a zero
// diagonal. It returns an error when the shapes disagree or the
// resulting matrix is invalid.
func Build(perf *netmodel.Perf, sizes *Sizes) (*Matrix, error) {
	m := new(Matrix)
	if err := BuildInto(m, perf, sizes); err != nil {
		return nil, err
	}
	return m, nil
}

// BuildInto is Build with a caller-owned destination: dst is resized
// and rebuilt in place, allocating only when its backing array must
// grow. Every entry, the zero diagonal included, is checked as it is
// written, and the first invalid one is reported exactly as Validate
// would report it. On error dst holds a partially built matrix and
// must not be used.
func BuildInto(dst *Matrix, perf *netmodel.Perf, sizes *Sizes) error {
	if perf.N() != sizes.N() {
		return fmt.Errorf("model: performance table is %d×%d but sizes are %d×%d",
			perf.N(), perf.N(), sizes.N(), sizes.N())
	}
	n := perf.N()
	dst.resize(n)
	for i := 0; i < n; i++ {
		row := dst.Row(i)
		for j := range row {
			t := perf.TransferTime(i, j, sizes.At(i, j)) // 0 on the diagonal
			if !validTime(t) {
				return invalidEntry(i, j, t)
			}
			row[j] = t
		}
	}
	return nil
}

// BuildUniform is Build with every message the same size.
func BuildUniform(perf *netmodel.Perf, size int64) (*Matrix, error) {
	return Build(perf, UniformSizes(perf.N(), size))
}

// FromRows builds a Matrix from a square [][]float64, validating shape
// and entries. The diagonal must be zero.
func FromRows(rows [][]float64) (*Matrix, error) {
	n := len(rows)
	m := NewMatrix(n)
	for i, row := range rows {
		if len(row) != n {
			return nil, fmt.Errorf("model: row %d has %d entries, want %d", i, len(row), n)
		}
		for j, t := range row {
			m.Set(i, j, t)
		}
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// ExampleMatrix returns a fixed 5-processor communication matrix in the
// spirit of the paper's running example (Figure 3): strongly
// heterogeneous event lengths so that the baseline schedule suffers
// from long events delaying later steps while the adaptive schedules
// group events of similar length. Times are in seconds.
func ExampleMatrix() *Matrix {
	rows := [][]float64{
		{0, 4, 1, 2, 1},
		{1, 0, 5, 3, 2},
		{3, 2, 0, 1, 5},
		{1, 1, 2, 0, 1},
		{2, 3, 1, 2, 0},
	}
	m, err := FromRows(rows)
	if err != nil {
		panic("model: ExampleMatrix is invalid: " + err.Error())
	}
	return m
}
