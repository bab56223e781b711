package model

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Text serialization for communication matrices. The format is
// line-oriented and human-editable, used by the command-line tools:
//
//	# comment
//	5
//	0 4 1 2 1
//	1 0 5 3 2
//	...
//
// The first non-comment line is the processor count P, followed by P
// rows of P whitespace-separated times in seconds.

// Format writes the matrix in the text format.
func Format(w io.Writer, m *Matrix) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%d\n", m.N())
	for i := 0; i < m.N(); i++ {
		for j := 0; j < m.N(); j++ {
			if j > 0 {
				bw.WriteByte(' ')
			}
			fmt.Fprintf(bw, "%g", m.At(i, j))
		}
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// FormatString returns the matrix in the text format.
func FormatString(m *Matrix) string {
	var sb strings.Builder
	Format(&sb, m)
	return sb.String()
}

// Parse reads a matrix in the text format. Blank lines and lines
// starting with '#' are skipped.
func Parse(r io.Reader) (*Matrix, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	fields := func() ([]string, error) {
		for sc.Scan() {
			line := strings.TrimSpace(sc.Text())
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			return strings.Fields(line), nil
		}
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, io.ErrUnexpectedEOF
	}

	head, err := fields()
	if err != nil {
		return nil, fmt.Errorf("model: reading size: %w", err)
	}
	if len(head) != 1 {
		return nil, fmt.Errorf("model: size line must hold one integer, got %q", strings.Join(head, " "))
	}
	n, err := strconv.Atoi(head[0])
	if err != nil || n < 0 {
		return nil, fmt.Errorf("model: invalid size %q", head[0])
	}
	if n > MaxProcessors {
		return nil, fmt.Errorf("model: size %d exceeds the %d-processor limit", n, MaxProcessors)
	}
	m := NewMatrix(n)
	for i := 0; i < n; i++ {
		row, err := fields()
		if err != nil {
			return nil, fmt.Errorf("model: reading row %d: %w", i, err)
		}
		if len(row) != n {
			return nil, fmt.Errorf("model: row %d has %d entries, want %d", i, len(row), n)
		}
		for j, f := range row {
			t, err := strconv.ParseFloat(f, 64)
			if err != nil {
				return nil, fmt.Errorf("model: row %d entry %d: %w", i, j, err)
			}
			m.Set(i, j, t)
		}
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// ParseString parses a matrix from a string in the text format.
func ParseString(s string) (*Matrix, error) {
	return Parse(strings.NewReader(s))
}
