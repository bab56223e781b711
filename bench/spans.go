package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Parent and Req are
// filled by resolve: the traced run is serial (one client, one worker),
// so a span's parent is the innermost span that contains it and its
// request is the root it lies in.
type span struct {
	Name       string
	Start, End time.Time
	Parent     int // index into the resolved slice; -1 for a root
	Req        int // ordinal of the enclosing root
	Note       string
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, which is how seams run with the recorder off.
type recorder struct {
	mu    sync.Mutex
	spans []span
}

// newRecorder starts small on purpose: a large up-front buffer would
// raise the live heap, and with it the GC pacing of the program being
// traced, before a single span is recorded.
func newRecorder() *recorder { return &recorder{spans: make([]span, 0, 1024)} }

func (r *recorder) add(name string, start, end time.Time, note string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{Name: name, Start: start, End: end, Note: note})
	r.mu.Unlock()
}

// reset drops everything recorded so far.
func (r *recorder) reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = r.spans[:0]
	r.mu.Unlock()
}

// resolve orders the spans by start (longest first on ties, so a parent
// precedes the child it starts with) and links each to its parent by
// containment.
func (r *recorder) resolve() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()
	return resolveSpans(spans)
}

func resolveSpans(spans []span) []span {
	sort.SliceStable(spans, func(i, j int) bool {
		if !spans[i].Start.Equal(spans[j].Start) {
			return spans[i].Start.Before(spans[j].Start)
		}
		return spans[i].End.After(spans[j].End)
	})
	var open []int // stack of spans that may still contain the next one
	roots := 0
	for i := range spans {
		for len(open) > 0 && spans[open[len(open)-1]].End.Before(spans[i].End) {
			open = open[:len(open)-1]
		}
		if len(open) == 0 {
			spans[i].Parent, spans[i].Req = -1, roots
			roots++
		} else {
			p := open[len(open)-1]
			spans[i].Parent, spans[i].Req = p, spans[p].Req
		}
		open = append(open, i)
	}
	return spans
}

// selfTimes returns, per span, its duration minus the part of it that
// its direct children cover (children may overlap one another).
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		covered := time.Duration(0)
		var edge time.Time // end of the union so far; children arrive in start order
		for _, c := range children[i] {
			from := spans[c].Start
			if from.Before(edge) {
				from = edge
			}
			if spans[c].End.After(from) {
				covered += spans[c].End.Sub(from)
				edge = spans[c].End
			}
		}
		self[i] = s.dur() - covered
	}
	return self
}

type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChromeTrace writes resolved spans as Chrome trace_event JSON
// (chrome://tracing, Perfetto). Timestamps are µs from the first span.
func writeChromeTrace(path string, spans []span) error {
	events := make([]traceEvent, 0, len(spans))
	for i, s := range spans {
		cat, _, _ := strings.Cut(s.Name, ".") // the layer
		args := map[string]any{"id": i, "req": s.Req, "parent": s.Parent}
		if s.Note != "" {
			args["note"] = s.Note
		}
		events = append(events, traceEvent{Name: s.Name, Cat: cat, Ph: "X",
			TS: us(s.Start.Sub(spans[0].Start)), Dur: us(s.dur()), PID: 1, TID: 1, Args: args})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ns"})
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	return os.WriteFile(path, data, 0o644)
}
