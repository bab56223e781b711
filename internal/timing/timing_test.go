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

func TestSenderIdle(t *testing.T) {
	s := &Schedule{N: 2, Events: []Event{
		{Src: 0, Dst: 1, Start: 1, Finish: 2},
		{Src: 0, Dst: 1, Start: 4, Finish: 5},
	}}
	idle := s.SenderIdle()
	if idle[0] != 3 { // 1 before first send + 2 between sends
		t.Errorf("idle[0] = %g, want 3", idle[0])
	}
	if idle[1] != 0 {
		t.Errorf("idle[1] = %g, want 0", idle[1])
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

func TestSummary(t *testing.T) {
	s := &Schedule{N: 2, Events: []Event{{Src: 1, Dst: 0, Start: 0, Finish: 2}}}
	sum := s.Summary()
	if !strings.Contains(sum, "1 events") || !strings.Contains(sum, "P1") {
		t.Errorf("Summary = %q", sum)
	}
}

func TestStepsString(t *testing.T) {
	ss := &StepSchedule{N: 3, Steps: []Step{{{1, 2}, {0, 1}}}}
	out := ss.StepsString()
	if !strings.Contains(out, "step 0:") || !strings.Contains(out, "0→1 1→2") {
		t.Errorf("StepsString = %q", out)
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

// randSteps builds a valid random step schedule: each step is a random
// partial permutation of senders to distinct receivers.
func randSteps(rng *rand.Rand, n, steps int) *StepSchedule {
	ss := &StepSchedule{N: n}
	for s := 0; s < steps; s++ {
		perm := rng.Perm(n)
		var step Step
		for i, j := range perm {
			if i == j || rng.Float64() < 0.2 {
				continue
			}
			step = append(step, Pair{Src: i, Dst: j})
		}
		ss.Steps = append(ss.Steps, step)
	}
	return ss
}

// TestStepScheduleClone checks the deep copy shares no memory with the
// original.
func TestStepScheduleClone(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ss := randSteps(rng, 6, 7)
	c := ss.Clone()
	if c.N != ss.N || len(c.Steps) != len(ss.Steps) {
		t.Fatal("clone shape differs")
	}
	for si := range ss.Steps {
		if len(c.Steps[si]) != len(ss.Steps[si]) {
			t.Fatalf("step %d length differs", si)
		}
		for pi := range ss.Steps[si] {
			if c.Steps[si][pi] != ss.Steps[si][pi] {
				t.Fatalf("step %d pair %d differs", si, pi)
			}
		}
		if len(ss.Steps[si]) > 0 {
			ss.Steps[si][0] = Pair{Src: -7, Dst: -7}
			if c.Steps[si][0] == ss.Steps[si][0] {
				t.Fatal("clone aliases the original's pairs")
			}
			ss.Steps[si][0] = c.Steps[si][0]
		}
	}
}
