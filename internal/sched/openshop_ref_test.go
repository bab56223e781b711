package sched

import (
	"fmt"
	"math"

	"hetsched/internal/model"
	"hetsched/internal/timing"
)

// The open shop loops as they stood before the event-ordered kernel
// replaced them, kept word for word as test oracles: two O(P) scans
// per event, terminating on any floats. The differential tests in
// openshop_diff_test.go hold OpenShop.Schedule and PartialOpenShopFrom
// to these with ==.

// referenceOpenShop is the former body of OpenShop.Schedule.
func referenceOpenShop(o OpenShop, m *model.Matrix) (*Result, error) {
	n := m.N()
	out := &timing.Schedule{N: n}

	sendAvail := make([]float64, n)
	recvAvail := make([]float64, n)
	// Remaining receiver sets; receivers[i][j] true when i still has to
	// send to j.
	receivers := make([][]bool, n)
	pending := make([]int, n)
	for i := range receivers {
		receivers[i] = make([]bool, n)
		for j := 0; j < n; j++ {
			if i != j {
				receivers[i][j] = true
				pending[i]++
			}
		}
	}
	// Remaining inbound work per receiver, for the most-loaded rule.
	inbound := make([]float64, n)
	for j := 0; j < n; j++ {
		inbound[j] = m.ColSum(j)
	}

	remaining := n * (n - 1)
	for remaining > 0 {
		// Next sender: smallest availability among senders with work
		// left; ties by id, matching "processed in an arbitrary order"
		// but deterministic.
		i := -1
		for s := 0; s < n; s++ {
			if pending[s] == 0 {
				continue
			}
			if i < 0 || sendAvail[s] < sendAvail[i] {
				i = s
			}
		}
		if i < 0 {
			return nil, fmt.Errorf("sched: openshop has %d events left but no sender", remaining)
		}
		// Earliest available receiver in R_i.
		j := -1
		for r := 0; r < n; r++ {
			if !receivers[i][r] {
				continue
			}
			if j < 0 || recvAvail[r] < recvAvail[j]-tieEps {
				j = r
				continue
			}
			if recvAvail[r] > recvAvail[j]+tieEps {
				continue
			}
			// Tie: apply the configured rule.
			switch o.TieBreak {
			case TieMostLoaded:
				if inbound[r] > inbound[j] {
					j = r
				}
			case TieLongestEvent:
				if m.At(i, r) > m.At(i, j) {
					j = r
				}
			}
		}
		start := sendAvail[i]
		if recvAvail[j] > start {
			start = recvAvail[j]
		}
		finish := start + m.At(i, j)
		out.Events = append(out.Events, timing.Event{Src: i, Dst: j, Start: start, Finish: finish})
		sendAvail[i] = finish
		recvAvail[j] = finish
		receivers[i][j] = false
		pending[i]--
		inbound[j] -= m.At(i, j)
		remaining--
	}
	return &Result{
		Algorithm:  o.Name(),
		Schedule:   out,
		LowerBound: m.LowerBound(),
	}, nil
}

// referencePartialOpenShop is the former body of PartialOpenShop,
// started, as sim's checkpoint replanner and qos's critical-resource
// fill once spelled it out, from the availability in sendFree and
// recvFree (nil for zero).
func referencePartialOpenShop(m *model.Matrix, p Pattern, sendFree, recvFree []float64) (*Result, error) {
	if err := p.Validate(m.N()); err != nil {
		return nil, err
	}
	n := m.N()
	pend := make([][]bool, n)
	counts := make([]int, n)
	for i := range pend {
		pend[i] = make([]bool, n)
	}
	for _, pr := range p {
		pend[pr.Src][pr.Dst] = true
		counts[pr.Src]++
	}
	sendAvail := make([]float64, n)
	recvAvail := make([]float64, n)
	copy(sendAvail, sendFree)
	copy(recvAvail, recvFree)
	out := &timing.Schedule{N: n}
	for remaining := len(p); remaining > 0; remaining-- {
		i := -1
		for s := 0; s < n; s++ {
			if counts[s] > 0 && (i < 0 || sendAvail[s] < sendAvail[i]) {
				i = s
			}
		}
		j := -1
		for r := 0; r < n; r++ {
			if pend[i][r] && (j < 0 || recvAvail[r] < recvAvail[j]) {
				j = r
			}
		}
		start := math.Max(sendAvail[i], recvAvail[j])
		fin := start + m.At(i, j)
		out.Events = append(out.Events, timing.Event{Src: i, Dst: j, Start: start, Finish: fin})
		sendAvail[i], recvAvail[j] = fin, fin
		pend[i][j] = false
		counts[i]--
	}
	if err := checkPatternSchedule(out, m, p); err != nil {
		return nil, err
	}
	return &Result{Algorithm: "partial-openshop", Schedule: out, LowerBound: PatternLowerBound(m, p)}, nil
}
