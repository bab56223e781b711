package timing

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
)

// ASCII rendering of timing diagrams, in the style of the paper's
// Figures 4 and 6–8: one column per sending processor, time flowing
// downward, each event drawn as a rectangle labelled with its receiver.

// RenderOptions controls RenderASCII.
type RenderOptions struct {
	// Rows is the number of character rows the time axis is divided
	// into. Zero selects a default of 24.
	Rows int
	// ColWidth is the width of each processor column in characters.
	// Zero selects a default of 6.
	ColWidth int
}

// RenderASCII draws the schedule as a textual timing diagram. Each
// column holds the send events of one processor; each event is a block
// of '<dst>' digits covering its time extent; idle time is '.'.
func RenderASCII(s *Schedule, opts RenderOptions) string {
	rows := opts.Rows
	if rows <= 0 {
		rows = 24
	}
	colw := opts.ColWidth
	if colw <= 0 {
		colw = 6
	}
	total := s.CompletionTime()
	var sb strings.Builder

	// Header.
	sb.WriteString("time")
	for p := 0; p < s.N; p++ {
		sb.WriteString(fmt.Sprintf(" %*s", colw, fmt.Sprintf("P%d", p)))
	}
	sb.WriteByte('\n')
	if total <= 0 {
		sb.WriteString("(empty schedule)\n")
		return sb.String()
	}

	grid := make([][]string, rows)
	for r := range grid {
		grid[r] = make([]string, s.N)
		for c := range grid[r] {
			grid[r][c] = strings.Repeat(".", colw)
		}
	}
	dt := total / float64(rows)
	for _, e := range s.Events {
		r0 := int(e.Start / dt)
		r1 := int((e.Finish - timeEps) / dt)
		if r1 >= rows {
			r1 = rows - 1
		}
		if r0 > r1 {
			r0 = r1
		}
		label := strconv.Itoa(e.Dst)
		for r := r0; r <= r1; r++ {
			cell := label
			if len(cell) < colw {
				cell = strings.Repeat(" ", colw-len(cell)) + cell
			}
			grid[r][e.Src] = cell
		}
	}
	for r := 0; r < rows; r++ {
		sb.WriteString(fmt.Sprintf("%4.1f", float64(r)*dt))
		for c := 0; c < s.N; c++ {
			sb.WriteByte(' ')
			sb.WriteString(grid[r][c])
		}
		sb.WriteByte('\n')
	}
	sb.WriteString(fmt.Sprintf("t_max = %.4g\n", total))
	return sb.String()
}

// scheduleJSON is the stable JSON shape of a schedule.
type scheduleJSON struct {
	N      int         `json:"n"`
	TMax   float64     `json:"t_max"`
	Events []eventJSON `json:"events"`
}

type eventJSON struct {
	Src    int     `json:"src"`
	Dst    int     `json:"dst"`
	Start  float64 `json:"start"`
	Finish float64 `json:"finish"`
}

// MarshalJSON encodes the schedule with its completion time, events
// sorted by start.
func (s *Schedule) MarshalJSON() ([]byte, error) {
	out := scheduleJSON{N: s.N, TMax: s.CompletionTime()}
	for _, e := range s.ByStart() {
		out.Events = append(out.Events, eventJSON{e.Src, e.Dst, e.Start, e.Finish})
	}
	return json.Marshal(out)
}

// UnmarshalJSON decodes a schedule previously produced by MarshalJSON.
func (s *Schedule) UnmarshalJSON(data []byte) error {
	var in scheduleJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return err
	}
	s.N = in.N
	s.Events = s.Events[:0]
	for _, e := range in.Events {
		s.Events = append(s.Events, Event{Src: e.Src, Dst: e.Dst, Start: e.Start, Finish: e.Finish})
	}
	return nil
}
