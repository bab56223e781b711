package timing

import (
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"hetsched/internal/model"
)

func TestEventDuration(t *testing.T) {
	e := Event{Src: 0, Dst: 1, Start: 1.5, Finish: 4}
	if e.Duration() != 2.5 {
		t.Errorf("Duration = %g", e.Duration())
	}
}

func TestCompletionTime(t *testing.T) {
	s := &Schedule{N: 3, Events: []Event{
		{0, 1, 0, 2}, {1, 2, 0, 5}, {2, 0, 1, 3},
	}}
	if s.CompletionTime() != 5 {
		t.Errorf("CompletionTime = %g, want 5", s.CompletionTime())
	}
	empty := &Schedule{N: 3}
	if empty.CompletionTime() != 0 {
		t.Error("empty schedule should have t_max 0")
	}
}

func TestValidateAcceptsGoodSchedule(t *testing.T) {
	m := model.ExampleMatrix()
	s := &Schedule{N: 5, Events: []Event{
		{Src: 0, Dst: 1, Start: 0, Finish: 4},
		{Src: 1, Dst: 2, Start: 0, Finish: 5},
		{Src: 0, Dst: 2, Start: 5, Finish: 6}, // after 1→2 released receiver 2
	}}
	if err := s.Validate(m); err != nil {
		t.Fatalf("valid schedule rejected: %v", err)
	}
}

func TestValidateSenderOverlap(t *testing.T) {
	s := &Schedule{N: 3, Events: []Event{
		{Src: 0, Dst: 1, Start: 0, Finish: 2},
		{Src: 0, Dst: 2, Start: 1, Finish: 3},
	}}
	if err := s.Validate(nil); err == nil || !strings.Contains(err.Error(), "sender") {
		t.Errorf("sender overlap not detected: %v", err)
	}
}

func TestValidateReceiverOverlap(t *testing.T) {
	s := &Schedule{N: 3, Events: []Event{
		{Src: 0, Dst: 2, Start: 0, Finish: 2},
		{Src: 1, Dst: 2, Start: 1.5, Finish: 3},
	}}
	if err := s.Validate(nil); err == nil || !strings.Contains(err.Error(), "receiver") {
		t.Errorf("receiver overlap not detected: %v", err)
	}
}

func TestValidateTouchingIntervalsOK(t *testing.T) {
	s := &Schedule{N: 3, Events: []Event{
		{Src: 0, Dst: 2, Start: 0, Finish: 2},
		{Src: 1, Dst: 2, Start: 2, Finish: 3},
		{Src: 0, Dst: 1, Start: 2, Finish: 4},
	}}
	if err := s.Validate(nil); err != nil {
		t.Errorf("back-to-back intervals rejected: %v", err)
	}
}

func TestValidateRejectsMalformedEvents(t *testing.T) {
	cases := []struct {
		name string
		s    *Schedule
	}{
		{"out of range", &Schedule{N: 2, Events: []Event{{Src: 0, Dst: 5, Start: 0, Finish: 1}}}},
		{"self message", &Schedule{N: 2, Events: []Event{{Src: 1, Dst: 1, Start: 0, Finish: 1}}}},
		{"negative start", &Schedule{N: 2, Events: []Event{{Src: 0, Dst: 1, Start: -1, Finish: 1}}}},
		{"finish before start", &Schedule{N: 2, Events: []Event{{Src: 0, Dst: 1, Start: 2, Finish: 1}}}},
		{"NaN", &Schedule{N: 2, Events: []Event{{Src: 0, Dst: 1, Start: math.NaN(), Finish: 1}}}},
		{"Inf", &Schedule{N: 2, Events: []Event{{Src: 0, Dst: 1, Start: 0, Finish: math.Inf(1)}}}},
	}
	for _, c := range cases {
		if err := c.s.Validate(nil); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestValidateDurationAgainstModel(t *testing.T) {
	m := model.ExampleMatrix()
	s := &Schedule{N: 5, Events: []Event{{Src: 0, Dst: 1, Start: 0, Finish: 3}}} // model says 4
	if err := s.Validate(m); err == nil {
		t.Error("wrong duration accepted")
	}
	if err := s.Validate(nil); err != nil {
		t.Errorf("without matrix the duration is unconstrained: %v", err)
	}
}

func TestValidateMatrixSizeMismatch(t *testing.T) {
	m := model.ExampleMatrix()
	s := &Schedule{N: 4}
	if err := s.Validate(m); err == nil {
		t.Error("size mismatch accepted")
	}
}

func TestValidateTotalExchange(t *testing.T) {
	m := model.ExampleMatrix()
	// Build a correct serial total exchange: all 20 events back to back.
	s := &Schedule{N: 5}
	now := 0.0
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			if i == j {
				continue
			}
			d := m.At(i, j)
			s.Events = append(s.Events, Event{Src: i, Dst: j, Start: now, Finish: now + d})
			now += d
		}
	}
	if err := s.ValidateTotalExchange(m); err != nil {
		t.Fatalf("serial total exchange rejected: %v", err)
	}
	// Drop one event: count check must fire.
	short := &Schedule{N: 5, Events: s.Events[:len(s.Events)-1]}
	if err := short.ValidateTotalExchange(m); err == nil {
		t.Error("missing event accepted")
	}
	// Duplicate an event in place of another pair: duplicate check.
	dup := s.Clone()
	dup.Events[0] = dup.Events[1]
	dup.Events[0].Start = now
	dup.Events[0].Finish = now + m.At(dup.Events[0].Src, dup.Events[0].Dst)
	if err := dup.ValidateTotalExchange(m); err == nil {
		t.Error("duplicate pair accepted")
	}
}

func TestByStartSorted(t *testing.T) {
	s := &Schedule{N: 3, Events: []Event{
		{Src: 2, Dst: 0, Start: 3, Finish: 4},
		{Src: 0, Dst: 1, Start: 0, Finish: 1},
		{Src: 1, Dst: 2, Start: 0, Finish: 2},
	}}
	evs := s.ByStart()
	if evs[0].Src != 0 || evs[1].Src != 1 || evs[2].Src != 2 {
		t.Errorf("ByStart order wrong: %+v", evs)
	}
	// Original untouched.
	if s.Events[0].Src != 2 {
		t.Error("ByStart mutated the schedule")
	}
}

func TestStepScheduleValidate(t *testing.T) {
	good := &StepSchedule{N: 3, Steps: []Step{
		{{0, 1}, {1, 2}, {2, 0}},
		{{0, 2}, {1, 0}, {2, 1}},
	}}
	if err := good.ValidateSteps(); err != nil {
		t.Fatalf("valid steps rejected: %v", err)
	}
	bad := &StepSchedule{N: 3, Steps: []Step{{{0, 1}, {0, 2}}}}
	if err := bad.ValidateSteps(); err == nil {
		t.Error("repeated sender in step accepted")
	}
	bad = &StepSchedule{N: 3, Steps: []Step{{{0, 2}, {1, 2}}}}
	if err := bad.ValidateSteps(); err == nil {
		t.Error("repeated receiver in step accepted")
	}
	bad = &StepSchedule{N: 3, Steps: []Step{{{0, 0}}}}
	if err := bad.ValidateSteps(); err == nil {
		t.Error("self message in step accepted")
	}
	bad = &StepSchedule{N: 3, Steps: []Step{{{0, 7}}}}
	if err := bad.ValidateSteps(); err == nil {
		t.Error("out-of-range pair accepted")
	}
}

func TestEvaluateAsyncSemantics(t *testing.T) {
	// Two processors exchange, then exchange again. With matrix
	// C[0][1] = 1, C[1][0] = 3, the second round's 0→1 must wait for
	// receiver 1 only until its own receive of round 1 is done.
	rows := [][]float64{{0, 1}, {3, 0}}
	m, err := model.FromRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	ss := &StepSchedule{N: 2, Steps: []Step{
		{{0, 1}, {1, 0}},
		{{0, 1}, {1, 0}},
	}}
	s, err := ss.Evaluate(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(m); err != nil {
		t.Fatal(err)
	}
	// Round 1: 0→1 [0,1), 1→0 [0,3).
	// Round 2: 0→1 starts at max(1, 1) = 1 (sender 0 free at 1, receiver
	// 1 finished its round-1 *receive* at 1)... receiver 1's receive of
	// round 1 is the 0→1 event finishing at 1. So start 1, finish 2.
	// 1→0 starts at max(3, 3) = 3, finishes 6.
	want := map[[2]int][2]float64{}
	want[[2]int{0, 1}] = [2]float64{1, 2}
	want[[2]int{1, 0}] = [2]float64{3, 6}
	for _, e := range s.Events[2:] {
		w := want[[2]int{e.Src, e.Dst}]
		if math.Abs(e.Start-w[0]) > 1e-12 || math.Abs(e.Finish-w[1]) > 1e-12 {
			t.Errorf("round-2 event %d→%d = [%g,%g), want [%g,%g)", e.Src, e.Dst, e.Start, e.Finish, w[0], w[1])
		}
	}
	if got := s.CompletionTime(); got != 6 {
		t.Errorf("t_max = %g, want 6", got)
	}
}

func TestEvaluateBarrierSlower(t *testing.T) {
	m := model.ExampleMatrix()
	ss := &StepSchedule{N: 5}
	// Caterpillar steps.
	for j := 1; j < 5; j++ {
		var step Step
		for i := 0; i < 5; i++ {
			step = append(step, Pair{i, (i + j) % 5})
		}
		ss.Steps = append(ss.Steps, step)
	}
	async, err := ss.Evaluate(m)
	if err != nil {
		t.Fatal(err)
	}
	barrier, err := ss.EvaluateBarrier(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := barrier.Validate(m); err != nil {
		t.Fatalf("barrier schedule invalid: %v", err)
	}
	if async.CompletionTime() > barrier.CompletionTime()+1e-9 {
		t.Errorf("async (%g) slower than barrier (%g)", async.CompletionTime(), barrier.CompletionTime())
	}
}

func TestEvaluateSizeMismatch(t *testing.T) {
	ss := &StepSchedule{N: 3}
	if _, err := ss.Evaluate(model.ExampleMatrix()); err == nil {
		t.Error("Evaluate accepted mismatched matrix")
	}
	if _, err := ss.EvaluateBarrier(model.ExampleMatrix()); err == nil {
		t.Error("EvaluateBarrier accepted mismatched matrix")
	}
}

func TestEvaluatePropagatesStepErrors(t *testing.T) {
	m := model.ExampleMatrix()
	ss := &StepSchedule{N: 5, Steps: []Step{{{0, 1}, {0, 2}}}}
	if _, err := ss.Evaluate(m); err == nil {
		t.Error("invalid steps evaluated")
	}
}

func TestCoversTotalExchange(t *testing.T) {
	full := &StepSchedule{N: 3, Steps: []Step{
		{{0, 1}, {1, 2}, {2, 0}},
		{{0, 2}, {1, 0}, {2, 1}},
	}}
	if !full.CoversTotalExchange() {
		t.Error("complete coverage not recognized")
	}
	missing := &StepSchedule{N: 3, Steps: []Step{{{0, 1}}}}
	if missing.CoversTotalExchange() {
		t.Error("incomplete coverage accepted")
	}
	dup := &StepSchedule{N: 3, Steps: []Step{
		{{0, 1}, {1, 2}, {2, 0}},
		{{0, 1}, {1, 0}, {2, 1}},
	}}
	if dup.CoversTotalExchange() {
		t.Error("duplicate pair accepted")
	}
	// Two pairs for N=2, one of them to a processor that does not exist.
	outside := &StepSchedule{N: 2, Steps: []Step{{{0, 5}, {1, 0}}}}
	if outside.CoversTotalExchange() {
		t.Error("out-of-range pair accepted")
	}
}

func TestPairsFlatten(t *testing.T) {
	ss := &StepSchedule{N: 3, Steps: []Step{{{0, 1}}, {{1, 2}, {2, 0}}}}
	pairs := ss.Pairs()
	if len(pairs) != 3 || pairs[0] != (Pair{0, 1}) || pairs[2] != (Pair{2, 0}) {
		t.Errorf("Pairs = %v", pairs)
	}
}

func TestEvaluateValidityProperty(t *testing.T) {
	// Property: evaluating any random valid step schedule yields a valid
	// timed schedule whose completion is at least the lower bound over
	// the scheduled events.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(8)
		m := model.NewMatrix(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j {
					m.Set(i, j, rng.Float64()*10)
				}
			}
		}
		// Random permutation steps (cyclic shifts in random order).
		ss := &StepSchedule{N: n}
		for _, j := range rng.Perm(n - 1) {
			shift := j + 1
			var step Step
			for i := 0; i < n; i++ {
				step = append(step, Pair{i, (i + shift) % n})
			}
			ss.Steps = append(ss.Steps, step)
		}
		s, err := ss.Evaluate(m)
		if err != nil {
			return false
		}
		if err := s.ValidateTotalExchange(m); err != nil {
			return false
		}
		return s.CompletionTime() >= m.LowerBound()-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestRenderASCII(t *testing.T) {
	m := model.ExampleMatrix()
	ss := &StepSchedule{N: 5}
	for j := 1; j < 5; j++ {
		var step Step
		for i := 0; i < 5; i++ {
			step = append(step, Pair{i, (i + j) % 5})
		}
		ss.Steps = append(ss.Steps, step)
	}
	s, err := ss.Evaluate(m)
	if err != nil {
		t.Fatal(err)
	}
	out := RenderASCII(s, RenderOptions{Rows: 10, ColWidth: 4})
	if !strings.Contains(out, "P0") || !strings.Contains(out, "P4") {
		t.Error("render missing processor headers")
	}
	if !strings.Contains(out, "t_max") {
		t.Error("render missing completion time")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 12 { // header + 10 rows + t_max
		t.Errorf("render has %d lines, want 12:\n%s", len(lines), out)
	}
}

func TestRenderASCIIEmpty(t *testing.T) {
	out := RenderASCII(&Schedule{N: 2}, RenderOptions{})
	if !strings.Contains(out, "empty") {
		t.Error("empty schedule should render a placeholder")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	s := &Schedule{N: 3, Events: []Event{
		{Src: 0, Dst: 1, Start: 0, Finish: 1},
		{Src: 1, Dst: 2, Start: 0.5, Finish: 2.25},
	}}
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"t_max"`) {
		t.Error("JSON missing t_max")
	}
	var back Schedule
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.N != 3 || len(back.Events) != 2 {
		t.Fatalf("round trip lost data: %+v", back)
	}
	if back.CompletionTime() != s.CompletionTime() {
		t.Error("completion time changed in round trip")
	}
}

func TestAsyncNeverSlowerThanBarrierProperty(t *testing.T) {
	// Removing barriers can only remove waiting: for any valid step
	// schedule and matrix, the asynchronous evaluation completes no
	// later than the lockstep one.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(9)
		m := model.NewMatrix(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j {
					m.Set(i, j, rng.Float64()*10)
				}
			}
		}
		// Random permutation steps plus random incomplete steps.
		ss := &StepSchedule{N: n}
		for _, j := range rng.Perm(n - 1) {
			shift := j + 1
			var step Step
			for i := 0; i < n; i++ {
				if rng.Float64() < 0.8 { // incomplete on purpose
					step = append(step, Pair{Src: i, Dst: (i + shift) % n})
				}
			}
			if len(step) > 0 {
				ss.Steps = append(ss.Steps, step)
			}
		}
		async, err := ss.Evaluate(m)
		if err != nil {
			return false
		}
		barrier, err := ss.EvaluateBarrier(m)
		if err != nil {
			return false
		}
		return async.CompletionTime() <= barrier.CompletionTime()+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// caterpillar returns the baseline's pair sequence for n processors and
// a matrix of random costs.
func caterpillar(rng *rand.Rand, n int) (*model.Matrix, []Pair) {
	m := model.NewMatrix(n)
	var seq []Pair
	for j := 1; j < n; j++ {
		for i := 0; i < n; i++ {
			seq = append(seq, Pair{i, (i + j) % n})
			m.Set(i, (i+j)%n, rng.Float64())
		}
	}
	return m, seq
}

// TestReplayDst: a dst that is too short grows, and a longer one is
// written from index 0 in place; the events are the same either way.
func TestReplayDst(t *testing.T) {
	m, seq := caterpillar(rand.New(rand.NewSource(1)), 7)
	want, err := Replay(m, seq, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != len(seq) || cap(want) != len(seq) {
		t.Fatalf("replayed len %d cap %d, want both %d", len(want), cap(want), len(seq))
	}
	for _, dst := range [][]Event{make([]Event, 3), make([]Event, 100)} {
		got, err := Replay(m, seq, dst)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) || (cap(dst) >= len(seq)) != (&got[0] == &dst[0]) {
			t.Fatalf("dst of cap %d: replayed %d events, in place %v", cap(dst), len(got), &got[0] == &dst[0])
		}
		for k := range got {
			if got[k] != want[k] {
				t.Fatalf("dst of cap %d: event %d is %+v, want %+v", cap(dst), k, got[k], want[k])
			}
		}
	}
}

// TestReplayFailsClosed: a cost that is not a finite non-negative time,
// a pair out of range and a self message are errors naming the pair,
// from Replay and from EvaluateBarrier alike.
func TestReplayFailsClosed(t *testing.T) {
	for _, c := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1} {
		m := model.ExampleMatrix()
		m.Set(2, 3, c)
		seq := []Pair{{0, 1}, {2, 3}}
		if _, err := Replay(m, seq, nil); err == nil || !strings.Contains(err.Error(), "2→3") {
			t.Errorf("Replay with cost %v: error %v, want one naming 2→3", c, err)
		}
		ss := &StepSchedule{N: 5, Steps: []Step{seq}}
		if _, err := ss.EvaluateBarrier(m); err == nil || !strings.Contains(err.Error(), "2→3") {
			t.Errorf("EvaluateBarrier with cost %v: error %v, want one naming 2→3", c, err)
		}
	}
	m := model.ExampleMatrix()
	for _, p := range []Pair{{0, 5}, {-1, 0}, {3, 3}} {
		if _, err := Replay(m, []Pair{{0, 1}, p}, nil); err == nil {
			t.Errorf("Replay accepted %d→%d", p.Src, p.Dst)
		}
	}
}

func TestColumns(t *testing.T) {
	s := &Schedule{N: 3, Events: []Event{
		{Src: 1, Dst: 2, Start: 0, Finish: 1},
		{Src: 0, Dst: 2, Start: 1, Finish: 1}, // free, and tied with the next
		{Src: 0, Dst: 1, Start: 1, Finish: 3},
		{Src: 1, Dst: 0, Start: 1, Finish: 4},
	}}
	cols, err := s.Columns()
	if err != nil {
		t.Fatal(err)
	}
	if len(cols) != 3 || len(cols[0]) != 2 || len(cols[1]) != 2 || len(cols[2]) != 0 {
		t.Fatalf("columns %v", cols)
	}
	if cols[0][0] != s.Events[1] || cols[0][1] != s.Events[2] || cols[1][0] != s.Events[0] || cols[1][1] != s.Events[3] {
		t.Errorf("columns %v are not the sequence filtered by sender", cols)
	}
	if cap(cols[0]) != 2 {
		t.Errorf("column 0 has capacity %d, want its exact length", cap(cols[0]))
	}
	s.Events[1], s.Events[3] = s.Events[3], s.Events[1]
	s.Events[0].Start = 2
	if _, err := s.Columns(); err == nil {
		t.Error("sender 1's start times going backwards accepted")
	}
	for _, e := range []Event{{Src: 3, Dst: 0}, {Src: 0, Dst: -1}, {Src: 2, Dst: 2}} {
		if _, err := (&Schedule{N: 3, Events: []Event{e}}).Columns(); err == nil {
			t.Errorf("event %d→%d accepted", e.Src, e.Dst)
		}
	}
}

// TestReplayZeroAlloc pins Replay at P = 50 with a reused dst: the port
// times live on the stack.
func TestReplayZeroAlloc(t *testing.T) {
	m, seq := caterpillar(rand.New(rand.NewSource(1)), 50)
	dst := make([]Event, len(seq))
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := Replay(m, seq, dst); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Replay at P=50 with a reused dst: %v allocs/op, want 0", allocs)
	}
}

func BenchmarkReplay(b *testing.B) {
	m, seq := caterpillar(rand.New(rand.NewSource(1)), 50)
	dst := make([]Event, len(seq))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Replay(m, seq, dst); err != nil {
			b.Fatal(err)
		}
	}
}
