package obs

import (
	"fmt"
	"sort"
	"time"

	"hetsched/internal/timing"
)

// ScheduleTrace builds the finished span tree of a timed schedule —
// planned or executed — for WritePerfetto: one slice per message event
// on its sender's track (named after names[i] when provided, "P<i>"
// otherwise), labelled "i→j" and noted with its modelled interval.
// Tracks appear in processor order; one that sends nothing has none.
// Event times are seconds on the
// simulated timeline and become offsets from the tree's zero start, so
// a 0.25 s transfer shows as a 250 ms slice in Perfetto. extra records
// — checkpoint instants, say — follow the events; every record is
// renumbered with a fresh span ID at the root. The tree has no trace ID
// and no span cap: its size is its input's.
//
// This is the paper's Figure 2/3 artifact as a loadable file: open the
// JSON in chrome://tracing or https://ui.perfetto.dev and the per-sender
// rectangles of Section 3.3's timing diagram appear as slices.
func ScheduleTrace(s *timing.Schedule, names []string, extra ...SpanRecord) *ReqTrace {
	track := func(i int) string {
		if i < len(names) && names[i] != "" {
			return names[i]
		}
		return fmt.Sprintf("P%d", i)
	}
	seconds := func(x float64) time.Duration { return time.Duration(x * float64(time.Second)) }
	var evs []timing.Event
	if s != nil {
		evs = append(evs, s.Events...)
	}
	sort.SliceStable(evs, func(a, b int) bool { return evs[a].Src < evs[b].Src })
	spans := make([]SpanRecord, 0, len(evs)+len(extra))
	for _, e := range evs {
		spans = append(spans, SpanRecord{
			Track: track(e.Src), Name: fmt.Sprintf("%d→%d", e.Src, e.Dst),
			Start: seconds(e.Start), End: seconds(e.Finish),
			Note: fmt.Sprintf("%g s to %g s", e.Start, e.Finish),
		})
	}
	spans = append(spans, extra...)
	for i := range spans {
		spans[i].Span, spans[i].Parent = uint64(i+1), 0
	}
	return &ReqTrace{clock: time.Now, spans: spans, nextSpan: uint64(len(spans))}
}
