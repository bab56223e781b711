package obs

import (
	"encoding/json"
	"io"
	"strconv"
	"time"
)

// traceEvent is one Chrome trace_event entry. Args is a map so
// encoding/json emits its keys sorted, keeping output deterministic.
type traceEvent struct {
	Name  string            `json:"name"`
	Ph    string            `json:"ph"`
	TS    float64           `json:"ts"`
	Dur   float64           `json:"dur,omitempty"`
	PID   int               `json:"pid"`
	TID   int               `json:"tid"`
	Scope string            `json:"s,omitempty"`
	Args  map[string]string `json:"args,omitempty"`
}

// traceFile is the on-disk shape: the JSON Object Format of the Chrome
// trace_event specification.
type traceFile struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// WritePerfetto renders span trees as Chrome trace_event JSON, the
// format chrome://tracing and https://ui.perfetto.dev load directly.
// Each track becomes a thread row, numbered in order of first
// appearance; spans become "X" slices and zero-duration marks "i"
// instants. Every event's args carry its span ID, its parent's, its
// note, the tree's outcome, and — for a tree with one — the trace ID,
// so one request is findable across the serve, comm and exec tracks.
// Trees are placed on one timeline, offset from the earliest start.
// No trees writes a loadable empty trace.
func WritePerfetto(w io.Writer, traces ...*ReqTrace) error {
	file := traceFile{TraceEvents: []traceEvent{}, DisplayTimeUnit: "ms"}
	var epoch time.Time
	for i, rt := range traces {
		if st := rt.Start(); i == 0 || st.Before(epoch) {
			epoch = st
		}
	}
	tids := map[string]int{}
	track := func(name string) int {
		if tid, ok := tids[name]; ok {
			return tid
		}
		tid := len(tids)
		tids[name] = tid
		file.TraceEvents = append(file.TraceEvents, traceEvent{
			Name: "thread_name", Ph: "M", TID: tid,
			Args: map[string]string{"name": name},
		})
		return tid
	}
	for _, rt := range traces {
		base := float64(rt.Start().Sub(epoch)) / float64(time.Microsecond)
		hex := FormatTraceID(rt.TraceID())
		outcome := rt.Outcome()
		for _, rec := range rt.Spans() {
			args := map[string]string{"span": strconv.FormatUint(rec.Span, 10)}
			if hex != "" {
				args["trace"] = hex
			}
			if rec.Parent != 0 {
				args["parent"] = strconv.FormatUint(rec.Parent, 10)
			}
			if rec.Note != "" {
				args["note"] = rec.Note
			}
			if outcome != "" {
				args["outcome"] = outcome
			}
			ts := base + float64(rec.Start)/float64(time.Microsecond)
			if rec.Start == rec.End {
				file.TraceEvents = append(file.TraceEvents, traceEvent{
					Name: rec.Name, Ph: "i", TS: ts, TID: track(rec.Track),
					Scope: "t", Args: args,
				})
				continue
			}
			file.TraceEvents = append(file.TraceEvents, traceEvent{
				Name: rec.Name, Ph: "X", TS: ts,
				Dur: float64(rec.End-rec.Start) / float64(time.Microsecond),
				TID: track(rec.Track), Args: args,
			})
		}
	}
	return json.NewEncoder(w).Encode(file)
}
