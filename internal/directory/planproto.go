package directory

import (
	"bytes"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strconv"

	"hetsched/internal/wire"
)

// Plan-service wire protocol: the planning daemon (cmd/hetpland, built
// on internal/serve) speaks the same newline-delimited JSON framing as
// the directory protocol, with its own ops. A client sends one plan
// request per line and receives exactly one response line — even when
// the daemon is overloaded, the answer is an explicit shed with a
// retry-after hint, never a silent drop.
//
//	→ {"op":"plan","id":7,"p":8,"kind":"uniform","bytes":1024,"deadline_ms":500}
//	← {"ok":true,"id":7,"status":"served","health":"ok","generation":3,
//	   "algorithm":"openshop","t_max":0.012,"t_lb":0.009,"steps":8}
//	← {"ok":false,"id":7,"status":"shed","retry_after_ms":40,
//	   "error":"serve: queue full"}
//	→ {"op":"serve_stats"}
//	← {"ok":true,"status":"served","stats":{"queue_depth":0,...}}
//
// The types live here, next to the directory protocol, so both wire
// formats share one framing idiom and one fuzz harness
// (FuzzProtocolDecode covers these frames too).
//
// Requests have a hand codec, because an explicit 50×50 table is 14.5 KB
// of JSON that reflection spends half a millisecond on. encoding/json
// stays the definition of the format on both sides:
//
//   - ParsePlanRequest first runs a single-pass decoder over the lines
//     AppendPlanRequest writes: one object whose keys are the nine
//     lower-case field names, each at most once; string values of
//     printable ASCII with no escapes; integers of at most 18 digits
//     with no fraction, exponent, leading zero or "-0"; sizes as a
//     non-empty square array of integer arrays; JSON whitespace between
//     tokens. All rows land in one []int64 slab. On anything else — an
//     unknown, upper-case or repeated key, null, an escape, a byte
//     >= 0x80, a float, a longer number, a ragged or empty table, a
//     truncated line — it declines without an opinion and
//     encoding/json decodes the line, so every accepted value and every
//     error text is encoding/json's. The fast decoder is not a mode:
//     nothing selects it, and FuzzPlanRequestCodec holds it to
//     encoding/json's result on every line it accepts.
//   - ParsePlanHead runs the same decoder in its one mode: the sizes
//     value is located, not read — it must start with "[[" and it ends
//     at the first "]]" — and every other field is decoded as above.
//     The plan daemon keys an explicit table on its compact text, so a
//     request for a cached table is answered from the span's digest
//     without one integer decoded; anything else it decodes with
//     ParsePlanRequest, which stays the only full decoder.
//   - AppendPlanRequest writes byte for byte what json.Marshal writes
//     (field order, omitempty, a nil row as null) and hands any request
//     with a string json would escape to json itself. Its sizes text is
//     AppendSizes', the one writer of that text.
//
// Nearly all of an explicit table's cost is its integers, so each
// direction spends it in one loop per sizes row: readRow on the way in,
// the row loop of AppendSizes with putInt on the way out.
//
// Responses have the same codec and the same contract, for another
// reason: a response is about 180 bytes, but it is what every cache hit
// sends, and through encoding/json it was all ten of a wire hit's
// allocations (DESIGN.md §3). AppendPlanResponse writes json.Marshal's
// bytes and hands to json a response with a string json would escape, a
// Stats payload, or a float json refuses (NaN, ±Inf). ParsePlanResponse
// runs the same decoder (planDecoder.object walks both directions'
// objects) over the fifteen plain fields — booleans, the integers
// above, and floats of JSON's grammar, converted with strconv.ParseFloat
// as json converts them — and declines a stats payload and everything
// the request decoder declines. FuzzPlanResponseCodec holds it to
// encoding/json.

// Plan-protocol op names.
const (
	// OpPlan requests one total-exchange plan.
	OpPlan = "plan"
	// OpServeStats requests the daemon's serving counters.
	OpServeStats = "serve_stats"
)

// Plan-response statuses: how the daemon resolved a request.
const (
	// PlanServed: a schedule was produced (possibly coalesced with a
	// concurrent identical request, possibly from the plan cache).
	PlanServed = "served"
	// PlanShed: admission control rejected the request — the queue or
	// in-flight budget was full. RetryAfterMS says when to come back.
	PlanShed = "shed"
	// PlanExpired: the request's remaining deadline could no longer
	// cover the expected planning cost (or had already passed) when a
	// worker picked it up, so it was dropped CoDel-style instead of
	// burning a planner on an answer the client would discard.
	PlanExpired = "expired"
	// PlanDraining: the daemon is shutting down and no longer admits
	// new work; in-flight requests still complete.
	PlanDraining = "draining"
)

// Plan-request pattern kinds, materialized server-side so the wire
// carries a compact spec instead of a P×P matrix (an explicit Sizes
// table is still accepted for irregular patterns).
const (
	// PatternUniform: every off-diagonal pair exchanges Bytes bytes.
	PatternUniform = "uniform"
	// PatternRandom: per-pair sizes drawn in [1, Bytes] from a
	// generator seeded with Seed — the same (p, bytes, seed) spec
	// always materializes the same pattern on every daemon.
	PatternRandom = "random"
	// PatternSkew: row i sends i+1 times the base Bytes to each
	// destination — the hotspot-sender shape of the paper's media
	// server scenario.
	PatternSkew = "skew"
)

// PlanRequest is one plan-service request line.
type PlanRequest struct {
	Op string `json:"op"`
	// ID is an opaque client token echoed in the response, so a client
	// multiplexing requests can match answers to callers.
	ID uint64 `json:"id,omitempty"`
	// P is the processor count; required for generated patterns,
	// implied by Sizes when an explicit table is sent.
	P int `json:"p,omitempty"`
	// Kind names a generated pattern (Pattern* constants); ignored when
	// Sizes is set.
	Kind string `json:"kind,omitempty"`
	// Bytes is the generated pattern's base message size.
	Bytes int64 `json:"bytes,omitempty"`
	// Seed drives PatternRandom.
	Seed int64 `json:"seed,omitempty"`
	// Sizes is an explicit P×P message-size table (diagonal ignored);
	// overrides Kind.
	Sizes [][]int64 `json:"sizes,omitempty"`
	// DeadlineMS is the client's total budget for this request,
	// including queue wait. 0 selects the daemon's default; the daemon
	// clamps it to its configured maximum.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// Trace is an optional 16-hex-digit trace ID correlating this
	// request across client, daemon, and executor telemetry (see
	// obs.TraceContext). Empty means untraced; daemons that trace
	// requests issue their own ID and echo it in the response.
	Trace string `json:"trace,omitempty"`
}

// ServeStats is the daemon's serving state, returned by OpServeStats.
type ServeStats struct {
	QueueDepth int  `json:"queue_depth"`
	InFlight   int  `json:"in_flight"`
	Draining   bool `json:"draining,omitempty"`

	Admitted  uint64 `json:"admitted"`
	Served    uint64 `json:"served"`
	Shed      uint64 `json:"shed"`
	Expired   uint64 `json:"expired"`
	Drained   uint64 `json:"drained"`
	Rejected  uint64 `json:"rejected"`
	Coalesced uint64 `json:"coalesced"`
	CacheHits uint64 `json:"cache_hits"`
	Plans     uint64 `json:"plans"`

	// Ladder exposure: how many served plans rode each rung.
	ServedFresh    uint64 `json:"served_fresh"`
	ServedStale    uint64 `json:"served_stale"`
	ServedDegraded uint64 `json:"served_degraded"`
}

// PlanResponse is one plan-service response line. Exactly one of the
// outcome shapes is populated: a served plan (OK true, Status
// "served"), an explicit rejection (OK false, Status "shed", "expired",
// or "draining", RetryAfterMS set), a request error (OK false, Error
// set), or a stats reply (OK true, Stats set).
type PlanResponse struct {
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`
	ID    uint64 `json:"id,omitempty"`
	// Status is one of the Plan* status constants.
	Status string `json:"status,omitempty"`
	// RetryAfterMS hints when a shed/expired/draining caller should
	// retry, sized from the current queue depth and planning cost.
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`

	// Served-plan payload.
	Health      string  `json:"health,omitempty"` // fallback-ladder rung ("ok","stale","degraded")
	Generation  uint64  `json:"generation,omitempty"`
	Algorithm   string  `json:"algorithm,omitempty"`
	TMax        float64 `json:"t_max,omitempty"`
	TLB         float64 `json:"t_lb,omitempty"`
	Steps       int     `json:"steps,omitempty"`
	Coalesced   bool    `json:"coalesced,omitempty"` // shared a concurrent identical planning run
	Cached      bool    `json:"cached,omitempty"`    // served from the versioned plan cache
	QueueWaitMS float64 `json:"queue_wait_ms,omitempty"`
	// Trace echoes (or, when the client sent none, assigns) the request's
	// trace ID, so the caller can find this request in the daemon's
	// exemplars, tail-sampled traces, and flight-recorder events.
	Trace string `json:"trace,omitempty"`

	// Stats payload for OpServeStats.
	Stats *ServeStats `json:"stats,omitempty"`
}

// ParsePlanRequest decodes one plan-request wire line. The rows of
// Sizes may share one backing array; each is clipped to its own
// capacity, so appending to a row never writes into the next.
func ParsePlanRequest(line []byte) (PlanRequest, error) {
	if req, ok := decodeCanonicalPlanRequest(line); ok {
		return req, nil
	}
	var req PlanRequest
	if err := wire.DecodeLine(line, &req); err != nil {
		return PlanRequest{}, fmt.Errorf("malformed plan request: %w", err)
	}
	return req, nil
}

// EncodePlanRequest renders a plan request as one wire line.
func EncodePlanRequest(req PlanRequest) ([]byte, error) {
	// A guess that saves the doubling, not a bound: append grows past it.
	size := 160 + len(req.Op) + len(req.Kind) + len(req.Trace)
	for _, row := range req.Sizes {
		size += 8 + 8*len(row)
	}
	return AppendPlanRequest(make([]byte, 0, size), req)
}

// AppendPlanRequest appends req's wire line to dst, so a client can
// encode every request of a connection into one buffer.
func AppendPlanRequest(dst []byte, req PlanRequest) ([]byte, error) {
	if !plainString(req.Op) || !plainString(req.Kind) || !plainString(req.Trace) {
		line, err := wire.AppendLine(dst, req)
		if err != nil {
			return dst, fmt.Errorf("encode plan request: %w", err)
		}
		return line, nil
	}
	dst = append(dst, `{"op":"`...)
	dst = append(dst, req.Op...)
	dst = append(dst, '"')
	dst = appendUintField(dst, `,"id":`, req.ID)
	dst = appendIntField(dst, `,"p":`, int64(req.P))
	dst = appendTextField(dst, `,"kind":"`, req.Kind)
	dst = appendIntField(dst, `,"bytes":`, req.Bytes)
	dst = appendIntField(dst, `,"seed":`, req.Seed)
	if len(req.Sizes) > 0 {
		dst = append(dst, `,"sizes":`...)
		dst = AppendSizes(dst, req.Sizes)
	}
	dst = appendIntField(dst, `,"deadline_ms":`, req.DeadlineMS)
	dst = appendTextField(dst, `,"trace":"`, req.Trace)
	return append(dst, '}', '\n'), nil
}

// The omitempty field writers: each appends key, the text up to the
// value, and the value, unless the value is its type's zero, which
// json.Marshal omits. A text key ends in the value's opening quote.

func appendUintField(dst []byte, key string, v uint64) []byte {
	if v == 0 {
		return dst
	}
	return strconv.AppendUint(append(dst, key...), v, 10)
}

func appendIntField(dst []byte, key string, v int64) []byte {
	if v == 0 {
		return dst
	}
	return strconv.AppendInt(append(dst, key...), v, 10)
}

func appendTextField(dst []byte, key, v string) []byte {
	if v == "" {
		return dst
	}
	return append(append(append(dst, key...), v...), '"')
}

func appendTrueField(dst []byte, key string, v bool) []byte {
	if !v {
		return dst
	}
	return append(append(dst, key...), "true"...)
}

// appendFloatField writes a finite v as encoding/json does: the
// shortest decimal that reads back as v, in exponent form below 1e-6
// and from 1e21, with a one-digit negative exponent unpadded. -0 is
// zero, so it is omitted like 0.
func appendFloatField(dst []byte, key string, v float64) []byte {
	if v == 0 {
		return dst
	}
	dst = append(dst, key...)
	if abs := math.Abs(v); abs >= 1e-6 && abs < 1e21 {
		return strconv.AppendFloat(dst, v, 'f', -1, 64)
	}
	dst = strconv.AppendFloat(dst, v, 'e', -1, 64)
	if n := len(dst); dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1] // e-07 is written e-7
		dst = dst[:n-1]
	}
	return dst
}

// AppendSizes appends the compact JSON text of a sizes table to dst,
// byte for byte what json.Marshal writes for it: a nil row is null. It
// is the text AppendPlanRequest sends and the text the plan daemon keys
// an explicit table on.
func AppendSizes(dst []byte, rows [][]int64) []byte {
	dst = append(dst, '[')
	for i, row := range rows {
		if i > 0 {
			dst = append(dst, ',')
		}
		if row == nil {
			dst = append(dst, "null"...)
			continue
		}
		// One reservation per row: a value and its comma take at most
		// 21 bytes, the width of MinInt64 plus one.
		dst = slices.Grow(dst, 21*len(row)+2)
		out, w := dst[:cap(dst)], len(dst)
		out[w] = '['
		w++
		for j, v := range row {
			if j > 0 {
				out[w] = ','
				w++
			}
			w = putInt(out, w, v)
		}
		out[w] = ']'
		dst = out[:w+1]
	}
	return append(dst, ']')
}

// digitPairs spells 00 through 99, two bytes each.
const digitPairs = "00010203040506070809" +
	"10111213141516171819" +
	"20212223242526272829" +
	"30313233343536373839" +
	"40414243444546474849" +
	"50515253545556575859" +
	"60616263646566676869" +
	"70717273747576777879" +
	"80818283848586878889" +
	"90919293949596979899"

// pow10 holds 10^0 through 10^19.
var pow10 = [20]uint64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19}

// putInt writes v in decimal, as strconv.AppendInt does, at out[w:],
// which has room for 20 bytes, and returns the index past it. It counts
// the digits first, so it writes them in place two at a time from the
// right.
func putInt(out []byte, w int, v int64) int {
	u := uint64(v)
	if v < 0 {
		out[w] = '-'
		w++
		u = -u
	}
	// From the bit length (1233/4096 ≈ log10 2), t+1 is the digit count
	// or one more than it; u|1 gives zero its one digit.
	x := u | 1
	t := bits.Len64(x) * 1233 >> 12
	end := w + t + 1
	if x < pow10[t] {
		end--
	}
	for i := end; ; i -= 2 {
		if u < 10 {
			out[i-1] = byte('0' + u)
			break
		}
		d := u % 100 * 2
		out[i-2], out[i-1] = digitPairs[d], digitPairs[d+1]
		if u /= 100; u == 0 {
			break
		}
	}
	return end
}

// ParsePlanResponse decodes one plan-response wire line.
func ParsePlanResponse(line []byte) (PlanResponse, error) {
	d := planDecoder{b: line}
	if resp, ok := d.response(); ok {
		return resp, nil
	}
	var resp PlanResponse
	if err := wire.DecodeLine(line, &resp); err != nil {
		return PlanResponse{}, fmt.Errorf("malformed plan response: %w", err)
	}
	return resp, nil
}

// EncodePlanResponse renders a plan response as one wire line.
func EncodePlanResponse(resp PlanResponse) ([]byte, error) {
	// A guess that saves the doubling, not a bound: append grows past it.
	size := 200 + len(resp.Error) + len(resp.Algorithm) + len(resp.Trace)
	line, err := AppendPlanResponse(make([]byte, 0, size), resp)
	if err != nil {
		return nil, err
	}
	return line, nil
}

// AppendPlanResponse appends resp's wire line to dst, so a server can
// answer every request of a connection into one buffer. It writes what
// json.Marshal writes and hands to json itself a response with a string
// json would escape, a Stats payload, or a float json refuses (NaN,
// ±Inf).
func AppendPlanResponse(dst []byte, resp PlanResponse) ([]byte, error) {
	if resp.Stats != nil || !plainString(resp.Error) || !plainString(resp.Status) ||
		!plainString(resp.Health) || !plainString(resp.Algorithm) || !plainString(resp.Trace) ||
		!finite(resp.TMax) || !finite(resp.TLB) || !finite(resp.QueueWaitMS) {
		line, err := wire.AppendLine(dst, resp)
		if err != nil {
			return dst, fmt.Errorf("encode plan response: %w", err)
		}
		return line, nil
	}
	dst = strconv.AppendBool(append(dst, `{"ok":`...), resp.OK)
	dst = appendTextField(dst, `,"error":"`, resp.Error)
	dst = appendUintField(dst, `,"id":`, resp.ID)
	dst = appendTextField(dst, `,"status":"`, resp.Status)
	dst = appendIntField(dst, `,"retry_after_ms":`, resp.RetryAfterMS)
	dst = appendTextField(dst, `,"health":"`, resp.Health)
	dst = appendUintField(dst, `,"generation":`, resp.Generation)
	dst = appendTextField(dst, `,"algorithm":"`, resp.Algorithm)
	dst = appendFloatField(dst, `,"t_max":`, resp.TMax)
	dst = appendFloatField(dst, `,"t_lb":`, resp.TLB)
	dst = appendIntField(dst, `,"steps":`, int64(resp.Steps))
	dst = appendTrueField(dst, `,"coalesced":`, resp.Coalesced)
	dst = appendTrueField(dst, `,"cached":`, resp.Cached)
	dst = appendFloatField(dst, `,"queue_wait_ms":`, resp.QueueWaitMS)
	dst = appendTextField(dst, `,"trace":"`, resp.Trace)
	return append(dst, '}', '\n'), nil
}

// finite reports whether json.Marshal can write v.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// plainString reports whether json.Marshal writes s between quotes
// unchanged: printable ASCII, nothing it escapes (quote, backslash, and
// the HTML-sensitive <, > and &).
func plainString(s string) bool {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20, c >= 0x7f, c == '"', c == '\\', c == '<', c == '>', c == '&':
			return false
		}
	}
	return true
}

// ParsePlanHead is ParsePlanRequest's fast decoder in head mode: it
// decodes every field but sizes exactly as ParsePlanRequest would, and
// only locates the sizes value, which must start with "[[" and ends at
// the first "]]". table is that span of line, and rows is the number of
// commas in its first row plus 1; nothing between is read, so the span
// may be anything from a canonical table to garbage. A line without a
// sizes key is decoded in full: table is nil and req is what
// ParsePlanRequest returns. ok is false where the fast decoder would
// decline the line outside its table, and where the sizes value does
// not start with "[[" or has no "]]"; only ParsePlanRequest can decode
// such a line.
func ParsePlanHead(line []byte) (req PlanRequest, table []byte, rows int, ok bool) {
	d := planDecoder{b: line, head: true}
	if req, ok = d.request(); !ok {
		return PlanRequest{}, nil, 0, false
	}
	return req, d.table, d.rows, true
}

// planDecoder is the cursor of the single-pass decoder of requests and
// responses. Every method that returns ok=false has declined the whole
// line.
type planDecoder struct {
	b []byte
	i int
	// head selects ParsePlanHead's mode: the sizes value is located as
	// table, with rows rows, instead of read.
	head  bool
	table []byte
	rows  int
}

// decodeCanonicalPlanRequest decodes a line of the shape described in
// the file comment, or declines.
func decodeCanonicalPlanRequest(line []byte) (PlanRequest, bool) {
	d := planDecoder{b: line}
	return d.request()
}

// object decodes the line from its start as one object. For each key
// it calls value, which decodes that key's value at the cursor and
// returns the key's bit; a key value does not know (bit 0) or a key
// seen before declines the line.
func (d *planDecoder) object(value func(key []byte) (field int, ok bool)) bool {
	if !d.eat('{') {
		return false
	}
	for seen := 0; !d.eat('}'); {
		if seen != 0 && !d.eat(',') {
			return false
		}
		key, ok := d.str()
		if !ok || !d.eat(':') {
			return false
		}
		d.space()
		field, ok := value(key)
		if !ok || field == 0 || seen&field != 0 {
			return false
		}
		seen |= field
	}
	d.space()
	return d.i == len(d.b)
}

// request decodes a plan-request line, or declines.
func (d *planDecoder) request() (PlanRequest, bool) {
	const (
		fOp = 1 << iota
		fID
		fP
		fKind
		fBytes
		fSeed
		fSizes
		fDeadlineMS
		fTrace
	)
	var req PlanRequest
	ok := d.object(func(key []byte) (field int, ok bool) {
		switch string(key) {
		case "op":
			req.Op, ok = d.text()
			return fOp, ok
		case "id":
			req.ID, ok = d.uint()
			return fID, ok
		case "p":
			req.P, ok = d.intField()
			return fP, ok
		case "kind":
			req.Kind, ok = d.text()
			return fKind, ok
		case "bytes":
			req.Bytes, ok = d.int()
			return fBytes, ok
		case "seed":
			req.Seed, ok = d.int()
			return fSeed, ok
		case "sizes":
			if d.head {
				ok = d.locate()
			} else {
				req.Sizes, ok = d.sizes()
			}
			return fSizes, ok
		case "deadline_ms":
			req.DeadlineMS, ok = d.int()
			return fDeadlineMS, ok
		case "trace":
			req.Trace, ok = d.text()
			return fTrace, ok
		}
		return 0, false
	})
	if !ok {
		return PlanRequest{}, false
	}
	return req, true
}

// response decodes a plan-response line, or declines: a stats payload
// is a key it does not know.
func (d *planDecoder) response() (PlanResponse, bool) {
	const (
		fOK = 1 << iota
		fError
		fID
		fStatus
		fRetryAfterMS
		fHealth
		fGeneration
		fAlgorithm
		fTMax
		fTLB
		fSteps
		fCoalesced
		fCached
		fQueueWaitMS
		fTrace
	)
	var resp PlanResponse
	ok := d.object(func(key []byte) (field int, ok bool) {
		switch string(key) {
		case "ok":
			resp.OK, ok = d.bool()
			return fOK, ok
		case "error":
			resp.Error, ok = d.text()
			return fError, ok
		case "id":
			resp.ID, ok = d.uint()
			return fID, ok
		case "status":
			resp.Status, ok = d.text()
			return fStatus, ok
		case "retry_after_ms":
			resp.RetryAfterMS, ok = d.int()
			return fRetryAfterMS, ok
		case "health":
			resp.Health, ok = d.text()
			return fHealth, ok
		case "generation":
			resp.Generation, ok = d.uint()
			return fGeneration, ok
		case "algorithm":
			resp.Algorithm, ok = d.text()
			return fAlgorithm, ok
		case "t_max":
			resp.TMax, ok = d.float()
			return fTMax, ok
		case "t_lb":
			resp.TLB, ok = d.float()
			return fTLB, ok
		case "steps":
			resp.Steps, ok = d.intField()
			return fSteps, ok
		case "coalesced":
			resp.Coalesced, ok = d.bool()
			return fCoalesced, ok
		case "cached":
			resp.Cached, ok = d.bool()
			return fCached, ok
		case "queue_wait_ms":
			resp.QueueWaitMS, ok = d.float()
			return fQueueWaitMS, ok
		case "trace":
			resp.Trace, ok = d.text()
			return fTrace, ok
		}
		return 0, false
	})
	if !ok {
		return PlanResponse{}, false
	}
	return resp, true
}

// space skips JSON's insignificant whitespace.
func (d *planDecoder) space() { d.i = skipSpace(d.b, d.i) }

// skipSpace returns the index of the first byte at or after i that is
// not JSON whitespace.
func skipSpace(b []byte, i int) int {
	for ; i < len(b); i++ {
		switch b[i] {
		case ' ', '\t', '\r', '\n':
		default:
			return i
		}
	}
	return i
}

// eat consumes c, after any whitespace, if it is next.
func (d *planDecoder) eat(c byte) bool {
	d.space()
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

// str consumes a string literal that is its own value: printable ASCII
// with no escape. The result aliases the line.
func (d *planDecoder) str() ([]byte, bool) {
	if !d.eat('"') {
		return nil, false
	}
	for start := d.i; d.i < len(d.b); d.i++ {
		switch c := d.b[d.i]; {
		case c == '"':
			d.i++
			return d.b[start : d.i-1], true
		case c < 0x20, c >= 0x80, c == '\\':
			return nil, false
		}
	}
	return nil, false
}

// text consumes a string value, without allocating for the values the
// protocol defines: ops, pattern kinds, statuses, ladder rungs, and the
// algorithm tags of the daemon's default scheduler on each rung (sched
// and comm name those; TestPlanResponseInternsServedNames holds this
// list to them). Any other value, such as a non-default scheduler's
// tag, costs one string.
func (d *planDecoder) text() (string, bool) {
	b, ok := d.str()
	switch string(b) {
	case OpPlan:
		return OpPlan, ok
	case OpServeStats:
		return OpServeStats, ok
	case PatternUniform:
		return PatternUniform, ok
	case PatternRandom:
		return PatternRandom, ok
	case PatternSkew:
		return PatternSkew, ok
	case PlanServed:
		return PlanServed, ok
	case PlanShed:
		return PlanShed, ok
	case PlanExpired:
		return PlanExpired, ok
	case PlanDraining:
		return PlanDraining, ok
	case "ok":
		return "ok", ok
	case "stale":
		return "stale", ok
	case "degraded":
		return "degraded", ok
	case "openshop":
		return "openshop", ok
	case "openshop+stale":
		return "openshop+stale", ok
	case "baseline+degraded":
		return "baseline+degraded", ok
	}
	return string(b), ok
}

// bool consumes true or false.
func (d *planDecoder) bool() (bool, bool) {
	rest := d.b[d.i:]
	switch {
	case bytes.HasPrefix(rest, []byte("true")):
		d.i += 4
		return true, true
	case bytes.HasPrefix(rest, []byte("false")):
		d.i += 5
		return false, true
	}
	return false, false
}

// leadingInt is the decoder's one number rule. It reads the integer b
// starts with and returns its length: an optional '-', then 1 to 18
// digits (so it fits every integer field) with no leading zero, and not
// "-0". Whatever follows is the caller's next token, and a fraction or
// exponent is none of them. It takes b[i:] rather than (b, i) because
// that keeps it under the inliner's budget, so readRow pays no call per
// value.
func leadingInt(b []byte) (v int64, n int, ok bool) {
	i := 0 // where the digits start
	if len(b) > 0 && b[0] == '-' {
		i = 1
	}
	for n = i; n < len(b) && b[n]-'0' <= 9; n++ {
		v = v*10 + int64(b[n]-'0')
	}
	if i > 0 {
		v = -v
	}
	// 1 to 18 digits, and a '0' leads only the number "0" itself.
	return v, n, uint(n-i-1) <= 17 && (b[i] != '0' || n == 1)
}

// int consumes a signed integer at the cursor.
func (d *planDecoder) int() (int64, bool) {
	v, n, ok := leadingInt(d.b[d.i:])
	d.i += n
	return v, ok
}

// intField consumes an integer for an int field.
func (d *planDecoder) intField() (int, bool) {
	v, ok := d.int()
	return int(v), ok && int64(int(v)) == v
}

// uint consumes a non-negative integer.
func (d *planDecoder) uint() (uint64, bool) {
	v, ok := d.int()
	return uint64(v), ok && v >= 0
}

// float consumes a number of JSON's grammar — an optional '-', an
// integer part without a leading zero, then an optional fraction and
// exponent, each with at least one digit — and converts it as
// encoding/json does, with strconv.ParseFloat, which declines a value
// out of float64's range.
func (d *planDecoder) float() (float64, bool) {
	b, i := d.b, d.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && b[i]-'1' <= 8:
		i = skipDigits(b, i)
	default:
		return 0, false
	}
	if i < len(b) && b[i] == '.' {
		if i = skipDigits(b, i+1); b[i-1] == '.' {
			return 0, false
		}
	}
	if i < len(b) && b[i]|0x20 == 'e' {
		if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		start := i
		if i = skipDigits(b, i); i == start {
			return 0, false
		}
	}
	v, err := strconv.ParseFloat(string(b[d.i:i]), 64)
	d.i = i
	return v, err == nil
}

// skipDigits returns the index of the first byte at or after i that is
// not a decimal digit.
func skipDigits(b []byte, i int) int {
	for i < len(b) && b[i]-'0' <= 9 {
		i++
	}
	return i
}

// readRow fills row from the values at b[i:], just past a row's '[',
// and returns the index past its ']'. Each value is [space] int [space]
// then ',' or, after the last, ']'. Only a byte <= ' ' can start
// whitespace, so a compact row never calls skipSpace.
func readRow(b []byte, i int, row []int64) (int, bool) {
	for c := range row {
		if i < len(b) && b[i] <= ' ' {
			i = skipSpace(b, i)
		}
		v, n, ok := leadingInt(b[i:])
		if !ok {
			return 0, false
		}
		if i += n; i < len(b) && b[i] <= ' ' {
			i = skipSpace(b, i)
		}
		end := byte(',')
		if c == len(row)-1 {
			end = ']'
		}
		if i == len(b) || b[i] != end {
			return 0, false
		}
		row[c] = v
		i++
	}
	return i, true
}

// sizes consumes a square table. The first row's commas give n; the n²
// values are then parsed into one slab by readRow, a row at a time.
func (d *planDecoder) sizes() ([][]int64, bool) {
	if !d.eat('[') || !d.eat('[') {
		return nil, false
	}
	n := 1
	for j := d.i; ; j++ {
		if j == len(d.b) {
			return nil, false
		}
		if d.b[j] == ']' {
			break
		}
		if d.b[j] == ',' {
			n++
		}
	}
	// An n×n table is more than 2n² bytes long: a first row that
	// promises more than the line can hold allocates nothing.
	if n > (len(d.b)-d.i)/(2*n) {
		return nil, false
	}
	slab := make([]int64, n*n)
	rows := make([][]int64, n)
	for r := range rows {
		if r > 0 && !(d.eat(',') && d.eat('[')) {
			return nil, false
		}
		row := slab[r*n : (r+1)*n : (r+1)*n]
		i, ok := readRow(d.b, d.i, row)
		if !ok {
			return nil, false
		}
		d.i = i
		rows[r] = row
	}
	return rows, d.eat(']')
}

// locate is sizes in head mode: it takes the span from the "[[" at the
// cursor to the first "]]" as the table, reading none of it.
func (d *planDecoder) locate() bool {
	rest := d.b[d.i:]
	end := bytes.Index(rest, []byte("]]"))
	if !bytes.HasPrefix(rest, []byte("[[")) || end < 0 {
		return false
	}
	d.table = rest[: end+2 : end+2]
	d.rows = bytes.Count(d.table[:bytes.IndexByte(d.table, ']')], []byte{','}) + 1
	d.i += end + 2
	return true
}
