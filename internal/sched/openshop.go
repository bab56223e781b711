package sched

import (
	"fmt"
	"math"
	"math/bits"

	"hetsched/internal/model"
	"hetsched/internal/timing"
)

// OpenShop is the list-scheduling heuristic of Section 4.5, derived
// from open shop scheduling (Shmoys, Stein & Wein). Every processor is
// split into a sender and a receiver entity. Senders are processed in
// increasing order of their next availability time; an available
// sender greedily picks the earliest-available receiver from its
// remaining receiver set, and the event is scheduled at
// max(sendavail, recvavail). Idle time appears in a sender's column
// only when every one of its remaining receivers is busy, which is the
// key fact behind Theorem 3: the completion time is within twice the
// lower bound.
//
// The definition reads as two O(P) scans per event, O(P³) in all.
// Schedule makes the same P(P−1) picks in the same order without
// rescanning (see openShopRun): typically O(P² log P), still O(P³) in
// the worst case, when every pick is a near-tie.
type OpenShop struct {
	// TieBreak selects among receivers with equal availability.
	TieBreak TieBreak
}

// TieBreak chooses among equally available receivers in the open shop
// heuristic. The paper leaves the choice unspecified ("an arbitrary
// order"); the variants are kept for the ablation benches.
type TieBreak int

const (
	// TieLowestID picks the receiver with the smallest index —
	// deterministic and the default.
	TieLowestID TieBreak = iota
	// TieMostLoaded picks the receiver with the largest remaining
	// inbound work, a longest-processing-time-style rule.
	TieMostLoaded
	// TieLongestEvent picks the receiver whose event from this sender
	// is longest.
	TieLongestEvent
)

// String names the tie-break rule.
func (tb TieBreak) String() string {
	switch tb {
	case TieLowestID:
		return "lowest-id"
	case TieMostLoaded:
		return "most-loaded"
	case TieLongestEvent:
		return "longest-event"
	default:
		return fmt.Sprintf("TieBreak(%d)", int(tb))
	}
}

// NewOpenShop returns the open shop scheduler with the default
// tie-break rule.
func NewOpenShop() OpenShop { return OpenShop{TieBreak: TieLowestID} }

// Name implements Scheduler.
func (o OpenShop) Name() string {
	if o.TieBreak == TieLowestID {
		return "openshop"
	}
	return "openshop-" + o.TieBreak.String()
}

// Schedule implements Scheduler.
func (o OpenShop) Schedule(m *model.Matrix) (*Result, error) {
	n := m.N()
	run := newOpenShopRun(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				run.owe(i, j)
			}
		}
	}
	events, err := run.schedule(m, tieEps, o.TieBreak)
	if err != nil {
		return nil, err
	}
	return &Result{
		Algorithm:  o.Name(),
		Schedule:   &timing.Schedule{N: n, Events: events},
		LowerBound: m.LowerBound(),
	}, nil
}

// tieEps treats availability times within this tolerance as equal when
// applying tie-break rules.
const tieEps = 1e-12

// times is a []float64 kept as IEEE bit patterns, so that it can be
// cut from the same []uint64 allocation as the index arrays and the
// bit sets beside it. The conversions compile to register moves.
type times []uint64

func (t times) at(i int) float64     { return math.Float64frombits(t[i]) }
func (t times) set(i int, v float64) { t[i] = math.Float64bits(v) }

// firstNotBelow returns the first index in [lo, len(t)) whose time is
// not below v, or len(t); t[lo:] must be sorted.
func (t times) firstNotBelow(lo int, v float64) int {
	hi := len(t)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if t.at(mid) < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// openShopRun is the working state of one open shop run, total or
// partial: the caller records the pairs to schedule with owe, then
// schedule plays the heuristic out. Everything lives in one slab
// allocated per run, so concurrent runs share nothing.
//
// The heuristic's two questions are answered from order instead of by
// scanning. Which sender is next: senders sit in a binary min-heap on
// (sendAvail, id), and only the sender that just sent, the root,
// changes key. Which receiver it picks: receivers sit in one array
// sorted by recvAvail, and only the receiver that just finished moves,
// always towards the back — which needs times that never decrease,
// hence schedule's up-front check that every owed cost is finite and
// non-negative.
type openShopRun struct {
	n     int
	words int // uint64 words per row of owed
	pairs int // pairs recorded by owe

	owed    []uint64 // n rows; bit j of row i is set while i still has to send to j
	pending []uint64 // messages sender i still has to send
	heap    []uint64 // senders with pending > 0, min-heap on (sendAvail, id)
	heapKey times    // heapKey[h] is sendAvail of heap[h]
	order   []uint64 // every receiver, by non-decreasing recvAvail
	key     times    // key[k] == recvAvail[order[k]]

	recvAvail times
	inbound   times // remaining inbound work per receiver, for TieMostLoaded
}

func newOpenShopRun(n int) openShopRun {
	words := (n + 63) / 64
	slab := make([]uint64, n*words+7*n)
	cut := func(k int) []uint64 {
		part := slab[:k:k]
		slab = slab[k:]
		return part
	}
	return openShopRun{
		n: n, words: words,
		owed:      cut(n * words),
		pending:   cut(n),
		heap:      cut(n),
		heapKey:   cut(n),
		order:     cut(n),
		key:       cut(n),
		recvAvail: cut(n),
		inbound:   cut(n),
	}
}

// owe records that i has to send to j. Each pair is recorded once.
func (s *openShopRun) owe(i, j int) {
	s.owed[i*s.words+j>>6] |= 1 << (uint(j) & 63)
	s.pending[i]++
	s.pairs++
}

// row returns sender i's remaining receiver set.
func (s *openShopRun) row(i int) []uint64 { return s.owed[i*s.words : (i+1)*s.words] }

func has(set []uint64, j int) bool { return set[j>>6]>>(uint(j)&63)&1 != 0 }

// schedule runs the heuristic over the recorded pairs and returns one
// event per pair in the order they were decided. Receivers whose
// availability differs by at most eps are tied, and tb picks among
// them. It fails, without scheduling anything, if an owed cost is NaN,
// infinite or negative.
func (s *openShopRun) schedule(m *model.Matrix, eps float64, tb TieBreak) ([]timing.Event, error) {
	if s.pairs == 0 {
		return nil, nil
	}
	n := s.n
	heap := s.heap[:0]
	for i := 0; i < n; i++ {
		if s.pending[i] == 0 {
			continue
		}
		// All senders start available at 0, so ascending ids are
		// already a heap.
		heap = append(heap, uint64(i))
		owed := s.row(i)
		for j, c := range m.Row(i) {
			if !has(owed, j) {
				continue
			}
			if math.IsNaN(c) || math.IsInf(c, 0) || c < 0 {
				return nil, fmt.Errorf("sched: open shop: entry (%d,%d) = %v is not a valid time", i, j, c)
			}
			s.inbound.set(j, s.inbound.at(j)+c)
		}
	}
	for k := range s.order {
		s.order[k] = uint64(k)
	}

	events := make([]timing.Event, s.pairs)
	for e := range events {
		i := int(heap[0])
		cost, owed := m.Row(i), s.row(i)

		// i's earliest and second-earliest remaining receivers are the
		// first two owed ones along the sorted order.
		ka, kb := -1, -1
		for k, r := range s.order {
			if !has(owed, int(r)) {
				continue
			}
			if ka < 0 {
				ka = k
				if s.pending[i] == 1 {
					break
				}
				continue
			}
			kb = k
			break
		}
		k := ka
		if kb >= 0 {
			// The definition's left-to-right scan with tolerance eps
			// can settle on any receiver within eps of the minimum,
			// depending on id order and tb, so only a clear winner is
			// taken from the order: when the earliest beats the
			// runner-up under both of the scan's own float predicates
			// it beats every later candidate too (rounding is monotone)
			// and the scan would return it under every tb. Anything
			// closer is decided by the scan itself — an exact-minimum
			// rule is a different function.
			a, b := s.key.at(ka), s.key.at(kb)
			if !(b > a+eps && a < b-eps) {
				k = s.position(s.scan(owed, cost, eps, tb))
			}
		}
		j := int(s.order[k])

		start := s.heapKey.at(0)
		if t := s.key.at(k); t > start {
			start = t
		}
		finish := start + cost[j]
		events[e] = timing.Event{Src: i, Dst: j, Start: start, Finish: finish}

		owed[j>>6] &^= 1 << (uint(j) & 63)
		s.inbound.set(j, s.inbound.at(j)-cost[j])
		s.pending[i]--
		x, tx := uint64(i), finish
		if s.pending[i] == 0 {
			// i is done; the last leaf takes the root's place.
			last := len(heap) - 1
			x, tx = heap[last], s.heapKey.at(last)
			heap = heap[:last]
		}
		if len(heap) > 0 {
			s.siftDown(heap, x, tx)
		}

		// j moves back to the last slot that keeps the order sorted
		// without passing an equal key; the receivers it passes shift
		// up one.
		lo := s.key.firstNotBelow(k+1, finish)
		copy(s.key[k:lo-1], s.key[k+1:lo])
		copy(s.order[k:lo-1], s.order[k+1:lo])
		s.key.set(lo-1, finish)
		s.order[lo-1] = uint64(j)
		s.recvAvail.set(j, finish)
	}
	return events, nil
}

// scan is the heuristic's receiver choice as the paper's definition
// reads: the earliest-available receiver in the remaining set, taken
// left to right, with availabilities within eps tied and tb deciding
// ties.
func (s *openShopRun) scan(owed []uint64, cost []float64, eps float64, tb TieBreak) int {
	j, tj := -1, 0.0
	for w, word := range owed {
		for ; word != 0; word &= word - 1 {
			r := w<<6 + bits.TrailingZeros64(word)
			t := s.recvAvail.at(r)
			if j < 0 || t < tj-eps {
				j, tj = r, t
				continue
			}
			if t > tj+eps {
				continue
			}
			// Tie: apply the configured rule.
			switch tb {
			case TieMostLoaded:
				if s.inbound.at(r) > s.inbound.at(j) {
					j, tj = r, t
				}
			case TieLongestEvent:
				if cost[r] > cost[j] {
					j, tj = r, t
				}
			}
		}
	}
	return j
}

// position returns receiver j's slot in order.
func (s *openShopRun) position(j int) int {
	k := s.key.firstNotBelow(0, s.recvAvail.at(j))
	for s.order[k] != uint64(j) {
		k++
	}
	return k
}

// siftDown stores sender x with availability tx at the root, which
// must be vacant or stale, and moves it down to where the heap order
// holds again.
func (s *openShopRun) siftDown(heap []uint64, x uint64, tx float64) {
	key := s.heapKey[:len(heap)]
	i := 0
	for {
		c := 2*i + 1
		if c >= len(heap) {
			break
		}
		tc := key.at(c)
		if r := c + 1; r < len(heap) {
			if tr := key.at(r); tr < tc || tr == tc && heap[r] < heap[c] {
				c, tc = r, tr
			}
		}
		if tx < tc || tx == tc && x < heap[c] {
			break
		}
		heap[i], key[i] = heap[c], key[c]
		i = c
	}
	heap[i] = x
	key.set(i, tx)
}
