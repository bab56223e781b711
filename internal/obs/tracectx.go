package obs

import (
	"context"
	"os"
	"strconv"
	"sync/atomic"
	"time"
)

// Trace correlation: a TraceContext rides the context.Context through
// the serving, planning, and execution layers so one request can be
// followed from hcload, through hetpland's admission queue, into the
// communicator's ladder, and down to the executor's byte transfers.
// The wire carries only the 64-bit trace ID (hex, PlanRequest.Trace /
// PlanResponse.Trace); span IDs are process-local and exist to give
// the span tree parent/child structure.

// TraceContext identifies one request (TraceID) and the span currently
// open for it (SpanID, 0 at the root). It is a value — copy freely.
type TraceContext struct {
	TraceID uint64
	SpanID  uint64
}

// Valid reports whether the context carries a real trace ID.
func (tc TraceContext) Valid() bool { return tc.TraceID != 0 }

// traceIDSalt decorrelates trace IDs across processes; the counter
// decorrelates them within one. IDs need to be unique and well mixed,
// not cryptographic, so a splitmix64 finalizer over salt+counter is
// enough — and keeps NewTraceID allocation-free and lock-free.
var (
	traceIDSalt    uint64
	traceIDCounter atomic.Uint64
)

func init() {
	traceIDSalt = uint64(time.Now().UnixNano()) ^ uint64(os.Getpid())<<32
}

// NewTraceID returns a fresh non-zero 64-bit trace ID.
func NewTraceID() uint64 {
	x := traceIDSalt + traceIDCounter.Add(1)*0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	if x == 0 {
		x = 1
	}
	return x
}

// FormatTraceID renders an ID in the canonical 16-hex-digit wire form
// ("" for the zero ID, which is "no trace").
func FormatTraceID(id uint64) string {
	if id == 0 {
		return ""
	}
	const hexdigits = "0123456789abcdef"
	var b [16]byte
	for i := 15; i >= 0; i-- {
		b[i] = hexdigits[id&0xf]
		id >>= 4
	}
	return string(b[:])
}

// ParseTraceID parses the wire form. It accepts any non-empty hex
// string up to 16 digits, so foreign tracers with shorter IDs still
// correlate; ok is false for "" and malformed input.
func ParseTraceID(s string) (id uint64, ok bool) {
	if s == "" || len(s) > 16 {
		return 0, false
	}
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil || v == 0 {
		return 0, false
	}
	return v, true
}

// traceCtxKey keys the TraceContext in a context.Context.
type traceCtxKey struct{}

// WithTrace returns ctx carrying tc.
func WithTrace(ctx context.Context, tc TraceContext) context.Context {
	return context.WithValue(ctx, traceCtxKey{}, tc)
}

// TraceFrom extracts the TraceContext (zero value when absent or on a
// nil ctx).
func TraceFrom(ctx context.Context) TraceContext {
	if ctx == nil {
		return TraceContext{}
	}
	tc, _ := ctx.Value(traceCtxKey{}).(TraceContext)
	return tc
}
