package sched

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"hetsched/internal/model"
	"hetsched/internal/netmodel"
	"hetsched/internal/timing"
)

// The event-ordered open shop kernel must be the same function as the
// scanning loops it replaced (openshop_ref_test.go): the same events
// in the same order with the same times, compared with == — a schedule
// that is merely as good would still change what the daemon serves.

var allTieBreaks = []TieBreak{TieLowestID, TieMostLoaded, TieLongestEvent}

// sameResult fails unless got is exactly want.
func sameResult(t testing.TB, label string, got, want *Result) {
	t.Helper()
	if got.Algorithm != want.Algorithm {
		t.Fatalf("%s: algorithm %q, reference %q", label, got.Algorithm, want.Algorithm)
	}
	if got.LowerBound != want.LowerBound {
		t.Fatalf("%s: lower bound %v, reference %v", label, got.LowerBound, want.LowerBound)
	}
	if got.Steps != nil || want.Steps != nil {
		t.Fatalf("%s: open shop emitted steps", label)
	}
	g, w := got.Schedule, want.Schedule
	if g.N != w.N || len(g.Events) != len(w.Events) || (g.Events == nil) != (w.Events == nil) {
		t.Fatalf("%s: N=%d with events %v, reference N=%d with %v", label, g.N, g.Events, w.N, w.Events)
	}
	for k := range w.Events {
		if g.Events[k] != w.Events[k] {
			t.Fatalf("%s: event %d is %+v, reference %+v", label, k, g.Events[k], w.Events[k])
		}
	}
}

// matchesReference holds Schedule to referenceOpenShop on m under
// every tie-break rule.
func matchesReference(t testing.TB, label string, m *model.Matrix) {
	t.Helper()
	for _, tb := range allTieBreaks {
		o := OpenShop{TieBreak: tb}
		want, err := referenceOpenShop(o, m)
		if err != nil {
			t.Fatalf("%s %s: reference: %v", label, tb, err)
		}
		got, err := o.Schedule(m)
		if err != nil {
			t.Fatalf("%s %s: %v", label, tb, err)
		}
		sameResult(t, fmt.Sprintf("%s %s", label, tb), got, want)
	}
}

// fillMatrix returns a P×P matrix with every off-diagonal entry drawn
// from gen.
func fillMatrix(n int, gen func() float64) *model.Matrix {
	m := model.NewMatrix(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				m.Set(i, j, gen())
			}
		}
	}
	return m
}

// tieFamily is one adversarial cost distribution: each is built to
// make the receiver choice hinge on the tolerance rule rather than on a
// clear minimum. cost gives entry (i, j) of a P = n instance.
type tieFamily struct {
	name string
	cost func(rng *rand.Rand, n, i, j int) float64
}

// draw returns one P×P instance of the family.
func (f tieFamily) draw(rng *rand.Rand, n int) *model.Matrix {
	m := model.NewMatrix(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				m.Set(i, j, f.cost(rng, n, i, j))
			}
		}
	}
	return m
}

// iid is a family whose entries are drawn independently from gen.
func iid(name string, gen func(rng *rand.Rand) float64) tieFamily {
	return tieFamily{name, func(rng *rand.Rand, _, _, _ int) float64 { return gen(rng) }}
}

var tieFamilies = []tieFamily{
	// Every pick is a tie.
	iid("all-equal", func(*rand.Rand) float64 { return 2.5 }),
	// Few distinct sums, so exact ties recur all the way through.
	iid("one-two-three", func(rng *rand.Rand) float64 { return float64(1 + rng.Intn(3)) }),
	// Availabilities form chains whose neighbours are within tieEps
	// while their ends are not.
	iid("eps-ladder", func(rng *rand.Rand) float64 { return 1 + float64(rng.Intn(8))*0.7e-12 }),
	// One ulp is larger than tieEps: ±tieEps rounds away.
	iid("around-1e5", func(rng *rand.Rand) float64 { return 1e5 + float64(rng.Intn(6))*1.5e-11 }),
	// Free events leave availabilities where they were.
	iid("third-zero", func(rng *rand.Rand) float64 {
		if rng.Intn(3) == 0 {
			return 0
		}
		return rng.Float64()
	}),
	// Whole schedules shorter than tieEps-scale differences.
	iid("below-1e-9", func(rng *rand.Rand) float64 { return rng.Float64() * 1e-9 }),
	iid("below-1e-12", func(rng *rand.Rand) float64 { return float64(rng.Intn(5)) * 0.4e-12 }),
	// Tied but not owed: each sender's message to its ring successor is
	// free, so it leaves that receiver tied with its neighbours in the
	// order while no longer owing it. A pick whose next receiver in the
	// order is such a one cannot be settled there; the tie goes on to
	// the owed runner-up behind it, and under every tie-break rule.
	{"free-successor", func(_ *rand.Rand, n, i, j int) float64 {
		if j == (i+1)%n {
			return 0
		}
		return 1
	}},
}

func TestOpenShopMatchesReferenceGusto(t *testing.T) {
	ps := []int{128, 200}
	for p := 2; p <= 64; p++ {
		ps = append(ps, p)
	}
	for _, p := range ps {
		trials := 3
		if p > 64 || testing.Short() {
			trials = 1
		}
		if p > 64 && testing.Short() {
			continue // the O(P³) reference crawls under -race
		}
		for trial := 0; trial < trials; trial++ {
			rng := rand.New(rand.NewSource(int64(100*p + trial)))
			perf := netmodel.RandomPerf(rng, p, netmodel.GustoGuided())
			sizes := model.NewSizes(p)
			for i := 0; i < p; i++ {
				for j := 0; j < p; j++ {
					if i != j {
						sizes.Set(i, j, rng.Int63n(4<<20))
					}
				}
			}
			m, err := model.Build(perf, sizes)
			if err != nil {
				t.Fatal(err)
			}
			matchesReference(t, fmt.Sprintf("gusto P=%d trial %d", p, trial), m)
		}
	}
}

func TestOpenShopMatchesReferenceOnTies(t *testing.T) {
	// 64/65 and 128/129 straddle the remaining-set word size.
	ps := []int{2, 3, 4, 5, 6, 7, 8, 9, 11, 13, 16, 21, 32, 50, 64, 65, 128, 129}
	for _, fam := range tieFamilies {
		for _, p := range ps {
			trials := 4
			if p > 65 || testing.Short() {
				trials = 1
			}
			if p > 65 && testing.Short() {
				continue
			}
			for trial := 0; trial < trials; trial++ {
				rng := rand.New(rand.NewSource(int64(1000*p + trial)))
				m := fam.draw(rng, p)
				matchesReference(t, fmt.Sprintf("%s P=%d trial %d", fam.name, p, trial), m)
			}
		}
	}
}

// TestOpenShopIgnoresDiagonal pins that a non-zero diagonal, which
// Matrix.Validate rejects but the open shop never reads, is still
// accepted and still ignored.
func TestOpenShopIgnoresDiagonal(t *testing.T) {
	m := randMatrix(t, 9, 7, 1<<16)
	for i, v := range []float64{3, -1, math.NaN(), math.Inf(1), math.Inf(-1), 0, 1e300} {
		m.Set(i, i, v)
	}
	for _, tb := range allTieBreaks {
		o := OpenShop{TieBreak: tb}
		want, err := referenceOpenShop(o, m)
		if err != nil {
			t.Fatal(err)
		}
		got, err := o.Schedule(m)
		if err != nil {
			t.Fatalf("%s: %v", tb, err)
		}
		sameResult(t, tb.String(), got, want)
	}
}

// hostileValues are the entries TestOpenShopFailsClosed mixes: what a
// sorted order cannot represent (NaN, infinities, negatives) beside the
// extremes it must (zero, the largest and smallest positive floats).
var hostileValues = []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1, 0, math.MaxFloat64, 5e-324}

func validTime(c float64) bool { return !math.IsNaN(c) && !math.IsInf(c, 0) && c >= 0 }

// TestOpenShopFailsClosed feeds Schedule matrices drawn from every
// non-empty subset of hostileValues at P = 1…12. An invalid
// off-diagonal entry must be an error — never a panic, never a spin —
// and anything else must be the reference's schedule, covering each
// ordered pair exactly once.
func TestOpenShopFailsClosed(t *testing.T) {
	for p := 0; p <= 12; p++ {
		for mask := 1; mask < 1<<len(hostileValues); mask++ {
			var pool []float64
			for b, v := range hostileValues {
				if mask&(1<<b) != 0 {
					pool = append(pool, v)
				}
			}
			rng := rand.New(rand.NewSource(int64(p<<8 | mask)))
			valid := true
			m := fillMatrix(p, func() float64 {
				c := pool[rng.Intn(len(pool))]
				valid = valid && validTime(c)
				return c
			})
			for _, tb := range allTieBreaks {
				o := OpenShop{TieBreak: tb}
				label := fmt.Sprintf("P=%d mask=%07b %s", p, mask, tb)
				got, err := o.Schedule(m)
				if !valid {
					if err == nil {
						t.Fatalf("%s: accepted a matrix with an invalid time", label)
					}
					continue
				}
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				want, err := referenceOpenShop(o, m)
				if err != nil {
					t.Fatal(err)
				}
				sameResult(t, label, got, want)
				seen := make(map[timing.Pair]bool)
				for _, e := range got.Schedule.Events {
					seen[timing.Pair{Src: e.Src, Dst: e.Dst}] = true
				}
				if len(seen) != p*(p-1) {
					t.Fatalf("%s: %d distinct pairs scheduled, want %d", label, len(seen), p*(p-1))
				}
			}
		}
	}
	// A partial run reads only its pattern's entries: a bad cost inside
	// it is an error, one outside it is not.
	m := randMatrix(t, 4, 5, 1<<16)
	m.Set(1, 3, math.NaN())
	if _, err := PartialOpenShop(m, Pattern{{Src: 1, Dst: 3}, {Src: 0, Dst: 2}}); err == nil {
		t.Fatal("partial open shop accepted a NaN cost inside its pattern")
	}
	if _, err := PartialOpenShop(m, Pattern{{Src: 3, Dst: 1}, {Src: 0, Dst: 2}}); err != nil {
		t.Fatalf("partial open shop rejected a pattern that avoids the NaN: %v", err)
	}
}

func TestPartialOpenShopMatchesReference(t *testing.T) {
	type mk func(rng *rand.Rand, n int) *model.Matrix
	matrices := map[string]mk{
		"gusto": func(rng *rand.Rand, n int) *model.Matrix { return randMatrix(t, rng.Int63(), n, 1<<18) },
	}
	for _, fam := range tieFamilies {
		matrices[fam.name] = fam.draw
	}
	patterns := map[string]func(rng *rand.Rand, n int) Pattern{
		"empty":       func(*rand.Rand, int) Pattern { return nil },
		"single-pair": func(rng *rand.Rand, n int) Pattern { return Pattern{{Src: 0, Dst: 1 + rng.Intn(n-1)}} },
		"one-sender": func(rng *rand.Rand, n int) Pattern {
			var p Pattern
			src := rng.Intn(n)
			for j := 0; j < n; j++ {
				if j != src {
					p = append(p, timing.Pair{Src: src, Dst: j})
				}
			}
			return p
		},
		"one-receiver": func(rng *rand.Rand, n int) Pattern {
			var p Pattern
			dst := rng.Intn(n)
			for i := 0; i < n; i++ {
				if i != dst {
					p = append(p, timing.Pair{Src: i, Dst: dst})
				}
			}
			return p
		},
		"sparse": func(rng *rand.Rand, n int) Pattern { return randPattern(rng, n, 0.15) },
		"half":   func(rng *rand.Rand, n int) Pattern { return randPattern(rng, n, 0.5) },
		"dense":  func(rng *rand.Rand, n int) Pattern { return randPattern(rng, n, 0.9) },
		"shuffled-total": func(rng *rand.Rand, n int) Pattern {
			p := TotalExchangePattern(n)
			rng.Shuffle(len(p), func(a, b int) { p[a], p[b] = p[b], p[a] })
			return p
		},
		"total": func(_ *rand.Rand, n int) Pattern { return TotalExchangePattern(n) },
	}
	for mname, mkm := range matrices {
		for pname, mkp := range patterns {
			for _, n := range []int{2, 3, 5, 8, 13, 30, 64, 65, 70} {
				if testing.Short() && n > 65 {
					continue
				}
				rng := rand.New(rand.NewSource(int64(n)))
				m, p := mkm(rng, n), mkp(rng, n)
				label := fmt.Sprintf("%s/%s P=%d", mname, pname, n)
				partialMatchesReference(t, label, m, p, nil, nil)
				if pname != "half" {
					continue
				}
				// The started row: every port carries a time drawn from
				// the same family, so carried times tie with each other
				// and with the finishes the run makes.
				carried := mkm(rng, n)
				sendFree, recvFree := make([]float64, n), make([]float64, n)
				for i := range sendFree {
					sendFree[i] = carried.At(i, (i+1)%n)
					recvFree[i] = carried.At((i+1)%n, i)
				}
				partialMatchesReference(t, label+" started", m, p, sendFree, recvFree)
			}
		}
	}
}

// partialMatchesReference holds PartialOpenShopFrom to
// referencePartialOpenShop on one started instance.
func partialMatchesReference(t *testing.T, label string, m *model.Matrix, p Pattern, sendFree, recvFree []float64) {
	t.Helper()
	want, err := referencePartialOpenShop(m, p, sendFree, recvFree)
	if err != nil {
		t.Fatalf("%s: reference: %v", label, err)
	}
	got, err := PartialOpenShopFrom(m, p, sendFree, recvFree)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	sameResult(t, label, got, want)
}

// TestPartialOpenShopFromFailsClosed: a start the kernel cannot order
// is an error, whatever the pattern, and −0 is 0.
func TestPartialOpenShopFromFailsClosed(t *testing.T) {
	m := randMatrix(t, 6, 4, 1<<16)
	zero := []float64{0, 0, 0, 0}
	for _, p := range []Pattern{nil, TotalExchangePattern(4)} {
		for _, bad := range []float64{math.NaN(), -1, math.Inf(1), math.Inf(-1)} {
			start := []float64{0, 1, bad, 2}
			if _, err := PartialOpenShopFrom(m, p, start, zero); err == nil {
				t.Errorf("%d pairs: sender start %v accepted", len(p), bad)
			}
			if _, err := PartialOpenShopFrom(m, p, zero, start); err == nil {
				t.Errorf("%d pairs: receiver start %v accepted", len(p), bad)
			}
		}
		for _, short := range [][]float64{{}, zero[:3], append(zero, 0)} {
			if _, err := PartialOpenShopFrom(m, p, short, nil); err == nil {
				t.Errorf("%d pairs: %d sender start times for P=4 accepted", len(p), len(short))
			}
			if _, err := PartialOpenShopFrom(m, p, nil, short); err == nil {
				t.Errorf("%d pairs: %d receiver start times for P=4 accepted", len(p), len(short))
			}
		}
	}
	negZero := math.Copysign(0, -1)
	started := []float64{1, negZero, 0, negZero}
	partialMatchesReference(t, "−0 start", m, TotalExchangePattern(4), started, started)
}

// fuzzMatrix expands a byte string into a P×P matrix of finite
// non-negative costs. The first byte picks how the rest are read, so
// the fuzzer can reach every tie regime: raw float bits, a few small
// integers, steps of 0.7·tieEps above 1, steps of an ulp around 1e5,
// and sub-tieEps magnitudes.
func fuzzMatrix(n int, data []byte) *model.Matrix {
	if len(data) < 2 {
		return model.NewMatrix(n)
	}
	mode, data := data[0]%5, data[1:]
	k := 0
	next := func() byte {
		b := data[k%len(data)]
		k++
		return b
	}
	return fillMatrix(n, func() float64 {
		switch mode {
		case 0:
			var bits uint64
			for s := 0; s < 64; s += 8 {
				bits |= uint64(next()) << s
			}
			c := math.Abs(math.Float64frombits(bits))
			if math.IsNaN(c) || math.IsInf(c, 0) {
				return 0
			}
			return c
		case 1:
			return float64(next() % 4)
		case 2:
			return 1 + float64(next()%16)*0.7e-12
		case 3:
			return 1e5 + float64(next()%8)*1.5e-11
		default:
			return float64(next()) * 0.3e-12
		}
	})
}

func FuzzOpenShopMatchesReference(f *testing.F) {
	for mode := byte(0); mode < 5; mode++ {
		rng := rand.New(rand.NewSource(int64(mode)))
		for _, p := range []uint8{2, 3, 5, 9, 17, 40} {
			data := make([]byte, 1+rng.Intn(200))
			rng.Read(data)
			data[0] = mode
			f.Add(p, data)
		}
	}
	f.Add(uint8(12), []byte{1, 7})        // all-equal
	f.Add(uint8(12), []byte{4, 0})        // all-zero
	f.Add(uint8(6), []byte{})             // all-zero, short input
	f.Add(uint8(65), []byte{1, 1, 2, 3})  // two-word remaining sets
	f.Add(uint8(30), []byte{2, 0, 1, 2})  // eps ladder
	f.Add(uint8(30), []byte{3, 0, 1, 5})  // ulp > tieEps
	f.Add(uint8(20), []byte{1, 0, 0, 3})  // mostly zero
	f.Add(uint8(20), []byte{0, 255, 127}) // huge magnitudes
	f.Fuzz(func(t *testing.T, p uint8, data []byte) {
		n := int(p) % 72
		matchesReference(t, fmt.Sprintf("P=%d data=%x", n, data), fuzzMatrix(n, data))
	})
}

// fuzzPattern reads bit i·n+j of mask, which repeats as far as needed,
// as whether i sends to j. An empty mask is an empty pattern.
func fuzzPattern(n int, mask []byte) Pattern {
	var p Pattern
	for i := 0; i < n && len(mask) > 0; i++ {
		for j := 0; j < n; j++ {
			if b := (i*n + j) % (8 * len(mask)); i != j && mask[b>>3]>>(b&7)&1 != 0 {
				p = append(p, timing.Pair{Src: i, Dst: j})
			}
		}
	}
	return p
}

// fuzzStart expands a byte string into a start state for n processors:
// none for an empty string, else sender then receiver times that are
// 0…3 steps of a size the first byte picks, so that carried times tie
// with each other and with the costs fuzzMatrix draws. A zero step
// count with bit 2 set is −0.
func fuzzStart(n int, data []byte) (sendFree, recvFree []float64) {
	if len(data) == 0 {
		return nil, nil
	}
	step := [...]float64{1, 0.5, 0.7e-12, 1.5e-11}[data[0]%4]
	free := make([]float64, 2*n)
	for k := range free {
		b := data[k%len(data)]
		free[k] = step * float64(b%4)
		if b%4 == 0 && b&4 != 0 {
			free[k] = math.Copysign(0, -1)
		}
	}
	return free[:n:n], free[n:]
}

func FuzzPartialOpenShopMatchesReference(f *testing.F) {
	for mode := byte(0); mode < 5; mode++ {
		rng := rand.New(rand.NewSource(int64(mode)))
		for _, p := range []uint8{2, 3, 5, 9, 17, 40} {
			mask, data := make([]byte, 1+rng.Intn(64)), make([]byte, 1+rng.Intn(200))
			rng.Read(mask)
			rng.Read(data)
			data[0] = mode
			f.Add(p, mask, data, []byte(nil))
			start := make([]byte, rng.Intn(2*int(p)+1))
			rng.Read(start)
			f.Add(p, mask, data, start)
		}
	}
	f.Add(uint8(6), []byte{0xff}, []byte{1, 1}, []byte{})              // total exchange, all-equal
	f.Add(uint8(6), []byte{0xff}, []byte{1, 1}, []byte{0, 1, 2, 3, 0}) // the same, started
	f.Add(uint8(65), []byte{0x55}, []byte{1, 1, 2, 3}, []byte{1, 2})   // two-word remaining sets, every other pair
	// Tied but not owed. At time 0 senders 0, 1 and 2 send to 3, 4 and
	// 5, which then sit in the order as 5, 4, 3, all available at 1.
	// Sender 6 owes 5 and 3: its earliest, 5, is tied with the next one
	// in the order, 4, which it does not owe, and the tie goes to the
	// owed runner-up behind it, 3.
	f.Add(uint8(7), []byte{0x08, 0x08, 0x08, 0, 0, 0xa0, 0}, []byte{1, 1}, []byte{})
	// A carried time ties a receiver with a lower id. Every cost is 1;
	// sender 2 and receiver 3 carry 1, every other port 0. Sender 0
	// sends to 1 over [0, 1], and then sender 2 owes 1 and 3, both free
	// at 1: the tie goes to 1.
	f.Add(uint8(4), []byte{0x02, 0x0a}, []byte{1, 1}, []byte{0, 0, 1, 0, 0, 0, 0, 1})
	// A −0 carried by sender 1 ties sender 2, free at 0. Both owe 0,
	// and 1 goes first.
	f.Add(uint8(4), []byte{0x10, 0x01}, []byte{1, 1}, []byte{0, 4, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, p uint8, mask, data, start []byte) {
		n := int(p) % 72
		m, pat := fuzzMatrix(n, data), fuzzPattern(n, mask)
		sendFree, recvFree := fuzzStart(n, start)
		label := fmt.Sprintf("P=%d mask=%x data=%x start=%x", n, mask, data, start)
		want, werr := referencePartialOpenShop(m, pat, sendFree, recvFree)
		got, err := PartialOpenShopFrom(m, pat, sendFree, recvFree)
		if (err == nil) != (werr == nil) {
			t.Fatalf("%s: error %v, reference %v", label, err, werr)
		}
		if err == nil {
			sameResult(t, label, got, want)
		}
	})
}

// TestScratchReuseMatchesFresh plans in one Scratch at P = 50, 7, 50
// and 1, under every tie-break rule, over a GUSTO table and every tie
// family, with a plan that fails on a NaN cost between the sizes, and
// holds each plan to a fresh Schedule of its matrix: nothing a plan,
// or a failed one, leaves in the scratch may reach the next.
func TestScratchReuseMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var sc Scratch
	for step, n := range []int{50, 7, 50, 1} {
		ms := []*model.Matrix{randMatrix(t, int64(step), n, 1<<16)}
		if n > 1 {
			// The last row holds the NaN, so the failed plan has
			// written every other row into the slab.
			bad := randMatrix(t, int64(step), n, 1<<16)
			bad.Set(n-1, 0, math.NaN())
			ms = append(ms, bad)
		}
		for _, f := range tieFamilies {
			ms = append(ms, f.draw(rng, n))
		}
		for k, m := range ms {
			for _, tb := range allTieBreaks {
				o := OpenShop{TieBreak: tb}
				label := fmt.Sprintf("step %d P=%d matrix %d %s", step, n, k, tb)
				got, err := ScheduleIn(o, m, &sc)
				want, werr := o.Schedule(m)
				if (err == nil) != (werr == nil) {
					t.Fatalf("%s: error %v, fresh %v", label, err, werr)
				}
				if err != nil {
					continue
				}
				if got != &sc.result {
					t.Fatalf("%s: ScheduleIn did not plan in its scratch", label)
				}
				sameResult(t, label, got, want)
			}
		}
	}
	// A scheduler that cannot plan in a scratch, or a nil scratch,
	// gets a plan of its own.
	m := randMatrix(t, 9, 6, 1<<16)
	for _, tc := range []struct {
		s  Scheduler
		sc *Scratch
	}{{Baseline{}, &sc}, {NewOpenShop(), nil}} {
		r, err := ScheduleIn(tc.s, m, tc.sc)
		if err != nil {
			t.Fatal(err)
		}
		if r == &sc.result || r.Algorithm != tc.s.Name() {
			t.Fatalf("ScheduleIn(%s, %p) answered %q from the scratch", tc.s.Name(), tc.sc, r.Algorithm)
		}
	}
}

// TestOpenShopAllocationShape pins what a cold plan costs the heap:
// the scratch holding the result and schedule, the events at their
// exact length, and one working slab.
func TestOpenShopAllocationShape(t *testing.T) {
	const n = 50
	m := randMatrix(t, 1, n, 1<<16)
	r, err := NewOpenShop().Schedule(m)
	if err != nil {
		t.Fatal(err)
	}
	if ev := r.Schedule.Events; len(ev) != n*(n-1) || cap(ev) != len(ev) {
		t.Fatalf("events len %d cap %d, want both %d", len(ev), cap(ev), n*(n-1))
	}
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := NewOpenShop().Schedule(m); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 3 {
		t.Fatalf("Schedule at P=%d: %v allocs/op, want ≤ 3", n, allocs)
	}
}
