package exec

import (
	"fmt"
	"io"
	"math"
	"strings"
	"time"
)

// DestReport accounts for every byte addressed to one destination
// node. Delivered, Rerouted, and Abandoned partition the destination's
// column of the size matrix; Retried overlaps them (bytes of transfers
// that needed at least one retry before resolving).
type DestReport struct {
	Dst       int
	Delivered int64 // bytes applied under the original plan (round 0)
	Rerouted  int64 // bytes applied under a replanned residual schedule
	Abandoned int64 // bytes that could not move, with Reasons
	Retried   int64
	Transfers int // transfers addressed to this destination
	Retries   int // extra attempts across those transfers
	Reasons   []string
}

// DeliveryReport is the executor's full accounting of one exchange:
// what the data plane actually did with every byte the size matrix
// promised, and how the measured wall clock compares to the plan's
// modeled completion time.
type DeliveryReport struct {
	N       int
	Rounds  int   // plan rounds executed; 1 means no replan was needed
	Replans int   // residual replans (Rounds - 1)
	Dead    []int // nodes declared dead, ascending

	TotalBytes     int64
	DeliveredBytes int64
	ReroutedBytes  int64
	AbandonedBytes int64
	RetriedBytes   int64
	Retries        int
	DupSuppressed  int // duplicate payloads absorbed by the receive ledger

	// Transfer counts by outcome (not rendered; metrics and tests).
	DeliveredTransfers int
	ReroutedTransfers  int
	AbandonedTransfers int

	Modeled float64       // modeled t_max of the original plan, seconds
	Wall    time.Duration // measured wall clock for the exchange

	// Trace is the request trace ID the exchange ran under (16 hex
	// digits), empty when the exchange was untraced.
	Trace string

	Dests []DestReport // per destination, ascending by node

	// Fit sets the measured transfers against the model pair by pair
	// (not rendered). Nil unless Config.Samples armed the measurement
	// and at least one applied pair has a positive modeled time.
	Fit *PairFit
}

// PairTiming is one transfer's measured wall clock beside the time the
// communication matrix predicted for its pair, both in seconds.
type PairTiming struct {
	Src, Dst int
	Measured float64
	Modeled  float64
}

// Ratio returns measured over modeled time.
func (p PairTiming) Ratio() float64 { return p.Measured / p.Modeled }

// PairFit summarises how the applied transfers' measured times sit
// against the model: the exchange-level Ratio says whether t_max was
// met, this says which pair the model got most wrong.
type PairFit struct {
	Pairs       int        // measured pairs with a positive modeled time
	Worst       PairTiming // the pair with the largest measured/modeled
	MedianRatio float64    // median measured/modeled over those pairs
}

// Accounted reports whether delivered + rerouted + abandoned bytes
// exactly partition the exchange's total — the executor's core
// guarantee, asserted by the chaos tests.
func (r *DeliveryReport) Accounted() bool {
	return r.DeliveredBytes+r.ReroutedBytes+r.AbandonedBytes == r.TotalBytes
}

// Ratio returns measured wall clock over modeled t_max. When the model
// predicts nothing (Modeled <= 0, a degenerate plan) the ratio is
// undefined and Ratio returns NaN: the old 0 sentinel read as
// "infinitely fast" in telemetry and averaged real exchanges down.
// Callers recording the ratio must skip NaN (observeReport does).
func (r *DeliveryReport) Ratio() float64 {
	if r.Modeled <= 0 {
		return math.NaN()
	}
	return r.Wall.Seconds() / r.Modeled
}

// Render writes the human-readable report. The layout is locked by a
// golden test; change it deliberately.
func (r *DeliveryReport) Render(w io.Writer) {
	dead := "none"
	if len(r.Dead) > 0 {
		parts := make([]string, len(r.Dead))
		for i, d := range r.Dead {
			parts[i] = fmt.Sprintf("P%d", d)
		}
		dead = strings.Join(parts, ",")
	}
	fmt.Fprintf(w, "delivery report: P=%d, %d round(s), %d replan(s), dead: %s\n",
		r.N, r.Rounds, r.Replans, dead)
	if r.Trace != "" {
		fmt.Fprintf(w, "  trace: %s\n", r.Trace)
	}
	fmt.Fprintf(w, "  bytes: %d total = %d delivered + %d rerouted + %d abandoned (%d retried, %d retries, %d dup suppressed)\n",
		r.TotalBytes, r.DeliveredBytes, r.ReroutedBytes, r.AbandonedBytes,
		r.RetriedBytes, r.Retries, r.DupSuppressed)
	ratio := "n/a"
	if v := r.Ratio(); !math.IsNaN(v) {
		ratio = fmt.Sprintf("%.3g", v)
	}
	fmt.Fprintf(w, "  time: %.4g s measured vs %.4g s modeled t_max (ratio %s)\n",
		r.Wall.Seconds(), r.Modeled, ratio)
	fmt.Fprintf(w, "  %-5s %10s %10s %10s %8s  %s\n",
		"dst", "delivered", "rerouted", "abandoned", "retries", "reasons")
	for _, d := range r.Dests {
		line := fmt.Sprintf("  P%-4d %10d %10d %10d %8d  %s",
			d.Dst, d.Delivered, d.Rerouted, d.Abandoned, d.Retries,
			strings.Join(d.Reasons, "; "))
		fmt.Fprintf(w, "%s\n", strings.TrimRight(line, " "))
	}
}

// String renders the report to a string.
func (r *DeliveryReport) String() string {
	var sb strings.Builder
	r.Render(&sb)
	return sb.String()
}
