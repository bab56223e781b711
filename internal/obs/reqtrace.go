package obs

import (
	"context"
	"sync"
	"time"
)

// Span trees, the package's one tracing model. A live ReqTrace
// accumulates the spans of one request as it crosses goroutines and
// layers (serve admission → queue wait → planning → exec rounds →
// transfers); the TailSampler then decides which trees are worth
// keeping. It is small and cheap enough to create for every admitted
// request. ScheduleTrace builds a finished tree from data instead, and
// WritePerfetto renders either kind.

// maxReqSpans caps the spans a live tree retains so a pathological
// request (thousands of transfer attempts) cannot grow memory without
// bound; overflow is counted in Dropped.
const maxReqSpans = 256

// SpanRecord is one completed span of a request. Start/End are offsets
// from the ReqTrace start so records from different processes sharing a
// trace ID stay self-consistent.
type SpanRecord struct {
	Span   uint64 // span ID, unique within the trace
	Parent uint64 // parent span ID (0 at the root)
	Track  string // subsystem track: "serve", "comm", "exec"
	Name   string
	Start  time.Duration
	End    time.Duration
	Note   string
}

// ReqTrace is the span tree of a single request. It is safe for
// concurrent use; all methods are no-ops on a nil receiver.
type ReqTrace struct {
	mu       sync.Mutex
	traceID  uint64
	clock    func() time.Time
	start    time.Time
	spans    []SpanRecord
	dropped  int
	nextSpan uint64
	outcome  string
	latency  time.Duration
}

// NewReqTrace starts a span tree for traceID. A nil clock selects
// time.Now. A zero traceID gets a fresh one.
func NewReqTrace(traceID uint64, clock func() time.Time) *ReqTrace {
	if clock == nil {
		clock = time.Now
	}
	if traceID == 0 {
		traceID = NewTraceID()
	}
	return &ReqTrace{traceID: traceID, clock: clock, start: clock()}
}

// TraceID returns the trace ID (0 on a nil receiver).
func (rt *ReqTrace) TraceID() uint64 {
	if rt == nil {
		return 0
	}
	return rt.traceID
}

// Start returns the trace epoch (zero time on a nil receiver).
func (rt *ReqTrace) Start() time.Time {
	if rt == nil {
		return time.Time{}
	}
	return rt.start
}

// Spans returns a copy of the recorded spans (nil on a nil receiver).
func (rt *ReqTrace) Spans() []SpanRecord {
	if rt == nil {
		return nil
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return append([]SpanRecord(nil), rt.spans...)
}

// Dropped returns how many spans were discarded past the per-request
// cap (0 on a nil receiver).
func (rt *ReqTrace) Dropped() int {
	if rt == nil {
		return 0
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.dropped
}

// SetOutcome records how the request resolved and its end-to-end
// latency, for tail-sampling decisions and statusz rendering.
func (rt *ReqTrace) SetOutcome(outcome string, latency time.Duration) {
	if rt == nil {
		return
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.outcome = outcome
	rt.latency = latency
}

// Outcome returns the recorded outcome ("" on a nil receiver).
func (rt *ReqTrace) Outcome() string {
	if rt == nil {
		return ""
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.outcome
}

// Latency returns the recorded end-to-end latency (0 on a nil receiver).
func (rt *ReqTrace) Latency() time.Duration {
	if rt == nil {
		return 0
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.latency
}

// newSpanID allocates the next span ID. Caller must not hold rt.mu.
func (rt *ReqTrace) newSpanID() uint64 {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.nextSpan++
	return rt.nextSpan
}

// record appends one finished span, honoring the cap.
func (rt *ReqTrace) record(rec SpanRecord) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if len(rt.spans) >= maxReqSpans {
		rt.dropped++
		return
	}
	rt.spans = append(rt.spans, rec)
}

// reqTraceKey keys the *ReqTrace in a context.Context.
type reqTraceKey struct{}

// WithReqTrace returns ctx carrying rt (and its TraceContext, so
// TraceFrom works even before the first span opens).
func WithReqTrace(ctx context.Context, rt *ReqTrace) context.Context {
	if rt == nil {
		return ctx
	}
	ctx = context.WithValue(ctx, reqTraceKey{}, rt)
	if tc := TraceFrom(ctx); tc.TraceID != rt.traceID {
		ctx = WithTrace(ctx, TraceContext{TraceID: rt.traceID})
	}
	return ctx
}

// ReqTraceFrom extracts the request trace (nil when absent or on a nil
// ctx).
func ReqTraceFrom(ctx context.Context) *ReqTrace {
	if ctx == nil {
		return nil
	}
	rt, _ := ctx.Value(reqTraceKey{}).(*ReqTrace)
	return rt
}

// ReqSpan is an in-flight request span; End closes it. All methods are
// no-ops on a nil receiver, which is what StartSpan returns when the
// context carries no ReqTrace — so call sites never branch.
type ReqSpan struct {
	rt     *ReqTrace
	id     uint64
	parent uint64
	track  string
	name   string
	start  time.Duration
	note   string
}

// StartSpan opens a child span on the request trace carried by ctx and
// returns a context rebound so further spans nest under it. When ctx
// carries no ReqTrace it returns (ctx, nil) — a cheap no-op.
func StartSpan(ctx context.Context, track, name string) (context.Context, *ReqSpan) {
	rt := ReqTraceFrom(ctx)
	if rt == nil {
		return ctx, nil
	}
	tc := TraceFrom(ctx)
	id := rt.newSpanID()
	sp := &ReqSpan{rt: rt, id: id, parent: tc.SpanID, track: track, name: name,
		start: rt.clock().Sub(rt.start)}
	return WithTrace(ctx, TraceContext{TraceID: rt.traceID, SpanID: id}), sp
}

// SetNote attaches a free-form note rendered in the trace viewer.
func (s *ReqSpan) SetNote(note string) {
	if s == nil {
		return
	}
	s.note = note
}

// End closes the span and records it on the trace.
func (s *ReqSpan) End() {
	if s == nil {
		return
	}
	s.rt.record(SpanRecord{Span: s.id, Parent: s.parent, Track: s.track,
		Name: s.name, Start: s.start, End: s.rt.clock().Sub(s.rt.start), Note: s.note})
}

// SliceSpan records a retrospective span from explicit wall-clock
// endpoints — for intervals measured on another goroutine (queue wait)
// where no open ReqSpan crossed the boundary. No-op without a ReqTrace.
func SliceSpan(ctx context.Context, track, name string, start, end time.Time, note string) {
	rt := ReqTraceFrom(ctx)
	if rt == nil {
		return
	}
	tc := TraceFrom(ctx)
	rt.record(SpanRecord{Span: rt.newSpanID(), Parent: tc.SpanID, Track: track,
		Name: name, Start: start.Sub(rt.start), End: end.Sub(rt.start), Note: note})
}

// Mark records an instant event (zero-duration span) on the request
// trace — retry attempts, peer deaths, cache hits. No-op without a
// ReqTrace.
func Mark(ctx context.Context, track, name, note string) {
	rt := ReqTraceFrom(ctx)
	if rt == nil {
		return
	}
	tc := TraceFrom(ctx)
	at := rt.clock().Sub(rt.start)
	rt.record(SpanRecord{Span: rt.newSpanID(), Parent: tc.SpanID, Track: track,
		Name: name, Start: at, End: at, Note: note})
}
