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
// rescanning (see openShopRun): O(log P) per pick for the sender, but
// O(P) for the receiver, whose slots it shifts and walks: still O(P³).
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
	return o.scheduleIn(m, new(Scratch))
}

// scheduleIn plans m in sc's memory; see ScheduleIn.
func (o OpenShop) scheduleIn(m *model.Matrix, sc *Scratch) (*Result, error) {
	n := m.N()
	run := newOpenShopRun(n, sc.slab)
	sc.slab = run.slab
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				run.owe(i, j)
			}
		}
	}
	events, err := run.schedule(m, tieEps, o.TieBreak, nil, nil, sc.events)
	if err != nil {
		return nil, err
	}
	if events != nil { // a plan for P ≤ 1 has none; keep the buffer
		sc.events = events
	}
	sc.schedule = timing.Schedule{N: n, Events: events}
	sc.result = Result{Algorithm: o.Name(), Schedule: &sc.schedule, LowerBound: m.LowerBound()}
	return &sc.result, nil
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

// openShopRun is the working state of one open shop run, total or
// partial: the caller records the pairs to schedule with owe, then
// schedule plays the heuristic out. Everything lives in one slab,
// allocated per run or reused from the caller's scratch, so concurrent
// runs share nothing.
//
// The heuristic's two questions are answered from order instead of by
// scanning. Which sender is next: senders are the leaves of a winner
// tree on (sendAvail, id), so the root is the answer, and only the
// sender that just sent changes key; replaying its path is one
// comparison per level, made with conditional moves because a served
// plan never repeats and a branch on the data would mispredict half
// the time. Which receiver it picks: receivers sit in one array sorted
// by recvAvail, and only the receiver that just finished moves, always
// towards the back. Both need times that never decrease, hence
// schedule's up-front check that every owed cost and start time is
// finite and non-negative; such times (with −0 read as 0) order like
// their bit patterns, so both compare them as uint64s.
type openShopRun struct {
	n     int
	words int // uint64 words per row of owed
	pairs int // pairs recorded by owe

	owed    []uint64 // n rows; bit j of row i is set while i still has to send to j
	pending []uint64 // messages sender i still has to send
	tree    []uint64 // id of the winner of inner node x in 1…n−1; x's children are 2x and 2x+1, sender i's leaf is n+i
	sendKey []uint64 // sendAvail bits of sender i, done once it has sent everything
	recv    []uint64 // slot k is (recvAvail, id) at [2k], [2k+1]; every receiver, by non-decreasing recvAvail

	recvAvail times
	inbound   times // remaining inbound work per receiver, for TieMostLoaded

	slab []uint64 // all of the above, for the caller to reuse
}

// newOpenShopRun returns the state of a run over n processors, with
// nothing owed yet. Its slab is buf, cleared, when buf's capacity is
// enough, and a new allocation otherwise.
func newOpenShopRun(n int, buf []uint64) openShopRun {
	words := (n + 63) / 64
	size := n*words + 7*n
	var slab []uint64
	if cap(buf) >= size {
		slab = buf[:size]
		clear(slab)
	} else {
		slab = make([]uint64, size)
	}
	rest := slab
	cut := func(k int) []uint64 {
		part := rest[:k:k]
		rest = rest[k:]
		return part
	}
	return openShopRun{
		n: n, words: words, slab: slab,
		owed:      cut(n * words),
		pending:   cut(n),
		tree:      cut(n),
		sendKey:   cut(n),
		recv:      cut(2 * n),
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

// done is the key of a sender with nothing left to send: above the bits
// of every time, +Inf included.
const done = ^uint64(0)

// winner returns the id of the sender that wins node x: a leaf's own,
// or what an inner node holds.
func (s *openShopRun) winner(x int) uint64 {
	if x >= s.n {
		return uint64(x - s.n)
	}
	return s.tree[x]
}

// less reports whether (ka, ia) < (kb, ib) as 128-bit integers.
func less(ka, ia, kb, ib uint64) bool {
	_, c := bits.Sub64(ia, ib, 0)
	_, c = bits.Sub64(ka, kb, c)
	return c != 0
}

// schedule runs the heuristic over the recorded pairs and returns one
// event per pair in the order they were decided, written into dst when
// its capacity is enough and into a new slice of exactly that length
// otherwise. Sender i is first available at sendFree[i] and receiver j
// at recvFree[j]; a nil start is all zero. Receivers whose
// availability differs by at most eps are tied, and tb picks among
// them. It fails, without scheduling anything, if an owed cost or a
// start time is NaN, infinite or negative, or a start does not have
// one time per processor.
func (s *openShopRun) schedule(m *model.Matrix, eps float64, tb TieBreak, sendFree, recvFree []float64, dst []timing.Event) ([]timing.Event, error) {
	n := s.n
	if err := checkStart("sender", sendFree, n); err != nil {
		return nil, err
	}
	if err := checkStart("receiver", recvFree, n); err != nil {
		return nil, err
	}
	if s.pairs == 0 {
		return nil, nil
	}
	tree, recv := s.tree, s.recv
	for i := 0; i < n; i++ {
		// The receiver order starts at ids, and is sorted by time below.
		r := startKey(recvFree, i)
		recv[2*i], recv[2*i+1] = r, uint64(i)
		s.recvAvail[i] = r
		if s.pending[i] == 0 {
			s.sendKey[i] = done
			continue
		}
		s.sendKey[i] = startKey(sendFree, i)
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
	// Insertion sort by (time, id); a zero start moves nothing.
	for k := 1; k < n; k++ {
		t, id := recv[2*k], recv[2*k+1]
		r := k
		for ; r > 0 && recv[2*r-2] > t; r-- {
			recv[2*r], recv[2*r+1] = recv[2*r-2], recv[2*r-1]
		}
		recv[2*r], recv[2*r+1] = t, id
	}
	for x := n - 1; x >= 1; x-- {
		l, r := s.winner(2*x), s.winner(2*x+1)
		if less(s.sendKey[r], r, s.sendKey[l], l) {
			l = r
		}
		tree[x] = l
	}

	var events []timing.Event
	if cap(dst) >= s.pairs {
		events = dst[:s.pairs]
	} else {
		events = make([]timing.Event, s.pairs)
	}
	for e := range events {
		i := int(s.winner(1))
		cost, owed := m.Row(i), s.row(i)

		// i's earliest remaining receiver is the first owed one along
		// the sorted order.
		k := 0
		for !has(owed, int(recv[2*k+1])) {
			k++
		}
		if s.pending[i] > 1 {
			// The definition's left-to-right scan with tolerance eps
			// can settle on any receiver within eps of the minimum,
			// depending on id order and tb, so only a clear winner is
			// taken from the order: one that beats the owed runner-up
			// under both of the scan's own float predicates beats every
			// later candidate too (rounding is monotone), and so does
			// one that beats any receiver in between, owed or not,
			// whose key is no larger. The walk stops at the first it
			// beats, almost always the successor; reaching an owed one
			// first leaves the pick to the scan itself.
			a := math.Float64frombits(recv[2*k])
			for r := k + 1; ; r++ {
				if b := math.Float64frombits(recv[2*r]); b > a+eps && a < b-eps {
					break
				}
				if has(owed, int(recv[2*r+1])) {
					k = s.position(s.scan(owed, cost, eps, tb))
					break
				}
			}
		}
		j := int(recv[2*k+1])

		start := math.Float64frombits(s.sendKey[i])
		if t := math.Float64frombits(recv[2*k]); t > start {
			start = t
		}
		finish := start + cost[j]
		events[e] = timing.Event{Src: i, Dst: j, Start: start, Finish: finish}

		owed[j>>6] &^= 1 << (uint(j) & 63)
		s.inbound.set(j, s.inbound.at(j)-cost[j])
		s.pending[i]--

		// i's leaf takes its new key; each node above keeps the smaller
		// of what comes up and its other child.
		fb := math.Float64bits(finish)
		key, id := fb, uint64(i)
		if s.pending[i] == 0 {
			key = done
		}
		s.sendKey[i] = key
		for x := n + i; x > 1; x >>= 1 {
			si := s.winner(x ^ 1)
			if sk := s.sendKey[si]; less(sk, si, key, id) {
				key, id = sk, si
			}
			tree[x>>1] = id
		}

		// j moves back to the last slot that keeps the order sorted
		// without passing an equal key; the receivers it passes shift
		// up one.
		lo := s.firstNotBelow(k+1, fb)
		copy(recv[2*k:2*lo-2], recv[2*k+2:2*lo])
		recv[2*lo-2], recv[2*lo-1] = fb, uint64(j)
		s.recvAvail.set(j, finish)
	}
	return events, nil
}

// checkStart fails unless start is nil or holds a finite non-negative
// time for each of the n processors.
func checkStart(role string, start []float64, n int) error {
	if start != nil && len(start) != n {
		return fmt.Errorf("sched: open shop: %d %s start times for P=%d", len(start), role, n)
	}
	for k, t := range start {
		if math.IsNaN(t) || math.IsInf(t, 0) || t < 0 {
			return fmt.Errorf("sched: open shop: %s %d starts at %v, not a valid time", role, k, t)
		}
	}
	return nil
}

// startKey returns processor i's start time in start as a key: 0 for a
// nil start, and adding +0 turns −0, whose sign bit would sort it after
// every time, into 0.
func startKey(start []float64, i int) uint64 {
	if start == nil {
		return 0
	}
	return math.Float64bits(start[i] + 0)
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

// firstNotBelow returns the first slot in [lo, n) of recv whose time
// is not below the one with bits v, or n.
func (s *openShopRun) firstNotBelow(lo int, v uint64) int {
	hi := s.n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.recv[2*mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// position returns receiver j's slot in recv.
func (s *openShopRun) position(j int) int {
	k := s.firstNotBelow(0, s.recvAvail[j])
	for s.recv[2*k+1] != uint64(j) {
		k++
	}
	return k
}
