package directory

import (
	"fmt"

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

// ParsePlanRequest decodes one plan-request wire line.
func ParsePlanRequest(line []byte) (PlanRequest, error) {
	var req PlanRequest
	if err := wire.DecodeLine(line, &req); err != nil {
		return PlanRequest{}, fmt.Errorf("malformed plan request: %w", err)
	}
	return req, nil
}

// EncodePlanRequest renders a plan request as one wire line.
func EncodePlanRequest(req PlanRequest) ([]byte, error) {
	b, err := wire.EncodeLine(req)
	if err != nil {
		return nil, fmt.Errorf("encode plan request: %w", err)
	}
	return b, nil
}

// ParsePlanResponse decodes one plan-response wire line.
func ParsePlanResponse(line []byte) (PlanResponse, error) {
	var resp PlanResponse
	if err := wire.DecodeLine(line, &resp); err != nil {
		return PlanResponse{}, fmt.Errorf("malformed plan response: %w", err)
	}
	return resp, nil
}

// EncodePlanResponse renders a plan response as one wire line.
func EncodePlanResponse(resp PlanResponse) ([]byte, error) {
	b, err := wire.EncodeLine(resp)
	if err != nil {
		return nil, fmt.Errorf("encode plan response: %w", err)
	}
	return b, nil
}
