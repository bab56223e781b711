package sim

import (
	"math"
	"math/rand"
	"testing"

	"hetsched/internal/model"
	"hetsched/internal/netmodel"
	"hetsched/internal/sched"
	"hetsched/internal/timing"
	"hetsched/internal/workload"
)

// perfFromMatrix builds a pure-bandwidth performance table whose unit
// message transfer times equal the given durations, for hand-computed
// cases: latency 0, bandwidth 1/d bytes per second, size 1 byte.
func perfFromMatrix(d [][]float64) *netmodel.Perf {
	n := len(d)
	p := netmodel.NewPerf(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				p.Set(i, j, netmodel.PairPerf{Latency: 0, Bandwidth: 1e12})
				continue
			}
			p.Set(i, j, netmodel.PairPerf{Latency: 0, Bandwidth: 1 / d[i][j]})
		}
	}
	return p
}

func unitPlan(n int, order [][]int) *Plan {
	return &Plan{N: n, Order: order, Sizes: model.UniformSizes(n, 1)}
}

func TestPlanValidate(t *testing.T) {
	good := unitPlan(3, [][]int{{1, 2}, {0}, {}})
	if err := good.Validate(); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
	cases := []*Plan{
		unitPlan(3, [][]int{{1}, {0}}),                             // wrong list count
		unitPlan(3, [][]int{{3}, {}, {}}),                          // out of range
		unitPlan(3, [][]int{{0}, {}, {}}),                          // self send
		unitPlan(3, [][]int{{1, 1}, {}, {}}),                       // duplicate destination
		{N: 3, Order: [][]int{{}, {}, {}}},                         // missing sizes
		{N: 2, Order: [][]int{{1}, {0}}, Sizes: model.NewSizes(3)}, // size shape
	}
	for k, p := range cases {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: invalid plan accepted", k)
		}
	}
}

func TestPlanEventsCloneTotalExchange(t *testing.T) {
	p := unitPlan(3, [][]int{{1, 2}, {0, 2}, {0, 1}})
	if p.Events() != 6 {
		t.Errorf("Events = %d, want the total exchange's 6", p.Events())
	}
	c := p.Clone()
	c.Order[0][0] = 2
	c.Order[0][1] = 1
	if p.Order[0][0] != 1 {
		t.Error("Clone shares order storage")
	}
	if partial := unitPlan(3, [][]int{{1}, {}, {}}); partial.Events() != 1 {
		t.Errorf("partial plan Events = %d, want 1", partial.Events())
	}
}

func TestPlanFromSchedule(t *testing.T) {
	s := &timing.Schedule{N: 3, Events: []timing.Event{
		{Src: 0, Dst: 2, Start: 5, Finish: 6},
		{Src: 0, Dst: 1, Start: 0, Finish: 1},
		{Src: 1, Dst: 0, Start: 0, Finish: 2},
	}}
	p, err := PlanFromSchedule(s, model.UniformSizes(3, 1))
	if err != nil {
		t.Fatal(err)
	}
	if p.Order[0][0] != 1 || p.Order[0][1] != 2 {
		t.Errorf("sender 0 order = %v, want [1 2]", p.Order[0])
	}
	if len(p.Order[2]) != 0 {
		t.Error("sender 2 should have no sends")
	}
}

func TestPlanFromScheduleSizeMismatch(t *testing.T) {
	s := &timing.Schedule{N: 3}
	if _, err := PlanFromSchedule(s, model.UniformSizes(2, 1)); err == nil {
		t.Error("size mismatch accepted")
	}
}

func TestStaticNetwork(t *testing.T) {
	perf := netmodel.Gusto()
	net := NewStatic(perf)
	if net.N() != 5 {
		t.Error("N wrong")
	}
	if got, want := net.TransferTime(0, 3, 1<<20, 123.0), perf.TransferTime(0, 3, 1<<20); got != want {
		t.Errorf("TransferTime = %g, want %g (time-invariant)", got, want)
	}
	// Perf returns a copy.
	net.Perf().Set(0, 3, netmodel.PairPerf{Latency: 1, Bandwidth: 1})
	if net.TransferTime(0, 3, 0, 0) != perf.TransferTime(0, 3, 0) {
		t.Error("Static leaked internal state")
	}
}

func TestPiecewiseNetwork(t *testing.T) {
	a := netmodel.Gusto()
	b := a.Scale(0.5) // half bandwidth after t=10
	pw, err := NewPiecewise([]Epoch{{Start: 0, Perf: a}, {Start: 10, Perf: b}})
	if err != nil {
		t.Fatal(err)
	}
	before := pw.TransferTime(0, 1, 1<<20, 9.999)
	after := pw.TransferTime(0, 1, 1<<20, 10)
	if after <= before {
		t.Errorf("bandwidth halving should slow transfers: before=%g after=%g", before, after)
	}
	if pw.TransferTime(0, 1, 1<<20, -5) != before {
		t.Error("times before the first epoch should use it")
	}
	// At returns a copy.
	pw.At(0).Set(0, 1, netmodel.PairPerf{Latency: 9, Bandwidth: 1})
	if pw.TransferTime(0, 1, 1<<20, 0) != before {
		t.Error("At leaked internal state")
	}
}

func TestPiecewiseValidation(t *testing.T) {
	a := netmodel.Gusto()
	if _, err := NewPiecewise(nil); err == nil {
		t.Error("empty epochs accepted")
	}
	if _, err := NewPiecewise([]Epoch{{Start: 5, Perf: a}}); err == nil {
		t.Error("late first epoch accepted")
	}
	if _, err := NewPiecewise([]Epoch{{Start: 0, Perf: a}, {Start: -1, Perf: a}}); err == nil {
		t.Error("out-of-order epochs accepted")
	}
	if _, err := NewPiecewise([]Epoch{{Start: 0, Perf: a}, {Start: 1, Perf: netmodel.NewPerf(3)}}); err == nil {
		t.Error("size mismatch accepted")
	}
}

func TestRunSerializesContendingReceives(t *testing.T) {
	// Senders 0 and 1 both target 2 at t=0; durations 3 and 5. Sender 0
	// wins the tie, so events are [0,3) and [3,8).
	d := [][]float64{
		{0, 0, 3},
		{0, 0, 5},
		{0, 0, 0},
	}
	net := NewStatic(perfFromMatrix(d))
	plan := unitPlan(3, [][]int{{2}, {2}, {}})
	res, err := Run(net, plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Schedule.Events) != 2 {
		t.Fatalf("events = %d", len(res.Schedule.Events))
	}
	e0, e1 := res.Schedule.Events[0], res.Schedule.Events[1]
	if e0.Src != 0 || e0.Start != 0 || e0.Finish != 3 {
		t.Errorf("first event = %+v", e0)
	}
	if e1.Src != 1 || e1.Start != 3 || e1.Finish != 8 {
		t.Errorf("second event = %+v", e1)
	}
	if res.Finish != 8 {
		t.Errorf("finish = %g", res.Finish)
	}
	if res.Remaining != nil {
		t.Error("plan should be complete")
	}
}

func TestRunFIFOOrderByRequestTime(t *testing.T) {
	// Sender 1 frees at t=1 and requests receiver 3; sender 2 frees at
	// t=2 and requests 3 too. Receiver 3 is busy with sender 0 until
	// t=4. FIFO: sender 1 (earlier request) goes first.
	d := [][]float64{
		{0, 0, 0, 4},
		{0, 0, 1, 2}, // 1→2 takes 1s, then 1→3
		{0, 2, 0, 3}, // 2→1 takes 2s, then 2→3
		{0, 0, 0, 0},
	}
	net := NewStatic(perfFromMatrix(d))
	plan := unitPlan(4, [][]int{{3}, {2, 3}, {1, 3}, {}})
	res, err := Run(net, plan)
	if err != nil {
		t.Fatal(err)
	}
	var to3 []timing.Event
	for _, e := range res.Schedule.Events {
		if e.Dst == 3 {
			to3 = append(to3, e)
		}
	}
	if len(to3) != 3 {
		t.Fatalf("events to 3: %d", len(to3))
	}
	if to3[0].Src != 0 || to3[1].Src != 1 || to3[2].Src != 2 {
		t.Errorf("receive order at 3: %+v", to3)
	}
	if to3[1].Start != 4 || to3[2].Start != 6 {
		t.Errorf("grant times: %+v", to3)
	}
}

func TestRunMatchesModelOnStaticNetwork(t *testing.T) {
	// Executing an openshop plan on a static network must yield a valid
	// schedule whose durations match the model matrix and whose finish
	// is at least the lower bound.
	rng := rand.New(rand.NewSource(21))
	perf := netmodel.RandomPerf(rng, 10, netmodel.GustoGuided())
	sizes := model.UniformSizes(10, 1<<20)
	m, err := model.Build(perf, sizes)
	if err != nil {
		t.Fatal(err)
	}
	r, err := sched.NewOpenShop().Schedule(m)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := PlanFromSchedule(r.Schedule, sizes)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(NewStatic(perf), plan)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Schedule.ValidateTotalExchange(m); err != nil {
		t.Fatalf("executed schedule invalid: %v", err)
	}
	if res.Finish < m.LowerBound()-1e-9 {
		t.Errorf("finish %g below lower bound %g", res.Finish, m.LowerBound())
	}
	// Greedy FIFO replay of a good plan should stay in the same
	// ballpark as the planned completion.
	if res.Finish > 1.5*r.CompletionTime() {
		t.Errorf("execution %g strays far from plan %g", res.Finish, r.CompletionTime())
	}
}

func TestRunBudgetResume(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	perf := netmodel.RandomPerf(rng, 6, netmodel.GustoGuided())
	sizes := model.UniformSizes(6, 1<<18)
	m, err := model.Build(perf, sizes)
	if err != nil {
		t.Fatal(err)
	}
	r, err := sched.NewGreedy().Schedule(m)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := PlanFromSchedule(r.Schedule, sizes)
	if err != nil {
		t.Fatal(err)
	}
	net := NewStatic(perf)

	full, err := Run(net, plan)
	if err != nil {
		t.Fatal(err)
	}

	// Run in phases of 7 dispatches and splice the schedules together:
	// the result must exactly equal the single-shot run.
	var events []timing.Event
	st := NewState(6)
	cur := plan
	for {
		phase, err := RunBudget(net, cur, st, 7)
		if err != nil {
			t.Fatal(err)
		}
		events = append(events, phase.Schedule.Events...)
		st = phase.State
		if phase.Remaining == nil {
			break
		}
		if phase.Dispatched == 0 {
			t.Fatal("no progress")
		}
		cur = phase.Remaining
	}
	if len(events) != len(full.Schedule.Events) {
		t.Fatalf("phased run has %d events, full run %d", len(events), len(full.Schedule.Events))
	}
	key := func(e timing.Event) [2]int { return [2]int{e.Src, e.Dst} }
	fullBy := map[[2]int]timing.Event{}
	for _, e := range full.Schedule.Events {
		fullBy[key(e)] = e
	}
	for _, e := range events {
		f := fullBy[key(e)]
		if math.Abs(e.Start-f.Start) > 1e-9 || math.Abs(e.Finish-f.Finish) > 1e-9 {
			t.Fatalf("event %d→%d differs: phased [%g,%g) vs full [%g,%g)", e.Src, e.Dst, e.Start, e.Finish, f.Start, f.Finish)
		}
	}
}

func TestRunBudgetZero(t *testing.T) {
	net := NewStatic(netmodel.Gusto())
	plan := unitPlan(5, [][]int{{1}, {}, {}, {}, {}})
	res, err := RunBudget(net, plan, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Dispatched != 0 || res.Remaining == nil || res.Remaining.Events() != 1 {
		t.Errorf("budget 0 should dispatch nothing: %+v", res)
	}
}

func TestRunErrors(t *testing.T) {
	net := NewStatic(netmodel.Gusto())
	bad := unitPlan(5, [][]int{{0}, {}, {}, {}, {}})
	if _, err := Run(net, bad); err == nil {
		t.Error("invalid plan accepted")
	}
	small := unitPlan(3, [][]int{{1}, {}, {}})
	if _, err := Run(net, small); err == nil {
		t.Error("size mismatch accepted")
	}
	good := unitPlan(5, [][]int{{1}, {}, {}, {}, {}})
	if _, err := RunBudget(net, good, &State{SendFree: make([]float64, 2), RecvFree: make([]float64, 2)}, -1); err == nil {
		t.Error("bad state shape accepted")
	}
}

func TestRunDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	perf := netmodel.RandomPerf(rng, 8, netmodel.GustoGuided())
	sizes := workload.Sizes(rng, workload.DefaultSpec(workload.Mixed, 8))
	m, err := model.Build(perf, sizes)
	if err != nil {
		t.Fatal(err)
	}
	r, err := sched.MaxMatching{}.Schedule(m)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := PlanFromSchedule(r.Schedule, sizes)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Run(NewStatic(perf), plan)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(NewStatic(perf), plan)
	if err != nil {
		t.Fatal(err)
	}
	for k := range a.Schedule.Events {
		if a.Schedule.Events[k] != b.Schedule.Events[k] {
			t.Fatal("nondeterministic execution")
		}
	}
}

func TestRunOnPiecewiseUsesStartConditions(t *testing.T) {
	// One sender, two sequential messages of duration 10 under epoch 1;
	// bandwidth halves at t=5. The first transfer starts at 0 and keeps
	// its 10s duration; the second starts at 10 under the slow epoch and
	// takes 20s.
	fast := perfFromMatrix([][]float64{{0, 10, 10}, {0, 0, 0}, {0, 0, 0}})
	slow := fast.Scale(0.5)
	pw, err := NewPiecewise([]Epoch{{Start: 0, Perf: fast}, {Start: 5, Perf: slow}})
	if err != nil {
		t.Fatal(err)
	}
	plan := unitPlan(3, [][]int{{1, 2}, {}, {}})
	res, err := Run(pw, plan)
	if err != nil {
		t.Fatal(err)
	}
	if res.Schedule.Events[0].Finish != 10 {
		t.Errorf("first transfer finish = %g, want 10", res.Schedule.Events[0].Finish)
	}
	if res.Schedule.Events[1].Finish != 30 {
		t.Errorf("second transfer finish = %g, want 30", res.Schedule.Events[1].Finish)
	}
}

func TestInterleavedMatchesPaperFormula(t *testing.T) {
	// Two equal simultaneous receives of duration d with overhead α
	// both finish at (1+α)·2d, the paper's calibration point.
	const d, alpha = 4.0, 0.25
	m := [][]float64{
		{0, 0, d},
		{0, 0, d},
		{0, 0, 0},
	}
	net := NewStatic(perfFromMatrix(m))
	plan := unitPlan(3, [][]int{{2}, {2}, {}})
	res, err := RunInterleaved(net, plan, alpha)
	if err != nil {
		t.Fatal(err)
	}
	want := (1 + alpha) * 2 * d
	if math.Abs(res.Finish-want) > 1e-9 {
		t.Errorf("finish = %g, want %g", res.Finish, want)
	}
	for _, e := range res.Schedule.Events {
		if math.Abs(e.Finish-want) > 1e-9 {
			t.Errorf("event %+v should finish at %g", e, want)
		}
	}
}

func TestInterleavedLoneReceiveFullRate(t *testing.T) {
	m := [][]float64{{0, 7}, {0, 0}}
	net := NewStatic(perfFromMatrix(m))
	plan := unitPlan(2, [][]int{{1}, {}})
	res, err := RunInterleaved(net, plan, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Finish-7) > 1e-9 {
		t.Errorf("lone receive finish = %g, want 7 (no overhead)", res.Finish)
	}
}

func TestInterleavedRespectsLowerBound(t *testing.T) {
	// Each sender still serializes its sends at full duration, and each
	// receiver's aggregate service rate never exceeds 1, so the model's
	// lower bound survives interleaving for every α ≥ 0.
	rng := rand.New(rand.NewSource(24))
	perf := netmodel.RandomPerf(rng, 8, netmodel.GustoGuided())
	sizes := model.UniformSizes(8, 1<<20)
	m, err := model.Build(perf, sizes)
	if err != nil {
		t.Fatal(err)
	}
	r, err := sched.Baseline{}.Schedule(m)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := PlanFromSchedule(r.Schedule, sizes)
	if err != nil {
		t.Fatal(err)
	}
	net := NewStatic(perf)
	for _, alpha := range []float64{0, 0.3, 1.0} {
		inter, err := RunInterleaved(net, plan, alpha)
		if err != nil {
			t.Fatal(err)
		}
		if inter.Finish < m.LowerBound()-1e-9 {
			t.Errorf("α=%g: finish %g below lower bound %g", alpha, inter.Finish, m.LowerBound())
		}
		if len(inter.Schedule.Events) != plan.Events() {
			t.Errorf("α=%g: executed %d events, want %d", alpha, len(inter.Schedule.Events), plan.Events())
		}
	}
}

func TestInterleavedMonotoneInAlpha(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	perf := netmodel.RandomPerf(rng, 6, netmodel.GustoGuided())
	sizes := model.UniformSizes(6, 1<<20)
	m, err := model.Build(perf, sizes)
	if err != nil {
		t.Fatal(err)
	}
	r, err := sched.Baseline{}.Schedule(m)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := PlanFromSchedule(r.Schedule, sizes)
	if err != nil {
		t.Fatal(err)
	}
	net := NewStatic(perf)
	prev := -1.0
	for _, alpha := range []float64{0, 0.2, 0.5, 1.0} {
		res, err := RunInterleaved(net, plan, alpha)
		if err != nil {
			t.Fatal(err)
		}
		if res.Finish < prev-1e-9 {
			t.Errorf("completion decreased as α grew: %g after %g", res.Finish, prev)
		}
		prev = res.Finish
	}
}

func TestInterleavedRejectsBadAlpha(t *testing.T) {
	net := NewStatic(netmodel.Gusto())
	plan := unitPlan(5, [][]int{{1}, {}, {}, {}, {}})
	for _, alpha := range []float64{-0.1, math.NaN(), math.Inf(1)} {
		if _, err := RunInterleaved(net, plan, alpha); err == nil {
			t.Errorf("alpha %v accepted", alpha)
		}
	}
}

func TestBufferedDecouplesSender(t *testing.T) {
	// Receiver 2 busy with a 10s direct receive from 0. Sender 1 wires
	// its 4s message into the buffer and is free at t=4 to serve its
	// next destination, while under the exclusive model it would block
	// until t=10 and finish its second send later.
	d := [][]float64{
		{0, 0, 10},
		{0, 0, 4},
		{0, 3, 0},
	}
	net := NewStatic(perfFromMatrix(d))
	// Sender 1: first to 2 (buffered), then... sender 1's second send
	// goes to 0 — give it one: d[1][0] = 6.
	d2 := [][]float64{
		{0, 0, 10},
		{6, 0, 4},
		{0, 3, 0},
	}
	net = NewStatic(perfFromMatrix(d2))
	plan := unitPlan(3, [][]int{{2}, {2, 0}, {}})

	excl, err := Run(net, plan)
	if err != nil {
		t.Fatal(err)
	}
	buf, err := RunBuffered(net, plan, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Exclusive: 1→2 waits until 10, ends 14; then 1→0 ends 20.
	if excl.Finish != 20 {
		t.Errorf("exclusive finish = %g, want 20", excl.Finish)
	}
	// Buffered: 1→2 wire [0,4), 1→0 [4,10); app receive of 1→2 runs
	// [10,14). Finish 14.
	if buf.Finish != 14 {
		t.Errorf("buffered finish = %g, want 14", buf.Finish)
	}
}

func TestBufferedFullBufferBlocks(t *testing.T) {
	// Capacity 1: receiver 2 takes a 10s direct receive from 0; sender 1
	// fills the one buffer slot with a 2s wire; sender 3's request at
	// t=0 must wait until the buffered message starts draining at t=10.
	d := [][]float64{
		{0, 0, 10, 0},
		{0, 0, 2, 0},
		{0, 0, 0, 0},
		{0, 0, 5, 0},
	}
	net := NewStatic(perfFromMatrix(d))
	plan := unitPlan(4, [][]int{{2}, {2}, {}, {2}})
	res, err := RunBuffered(net, plan, 1)
	if err != nil {
		t.Fatal(err)
	}
	var wire3 timing.Event
	for _, e := range res.Schedule.Events {
		if e.Src == 3 {
			wire3 = e
		}
	}
	if wire3.Start != 10 {
		t.Errorf("blocked sender started at %g, want 10 (buffer drain)", wire3.Start)
	}
	// App receives: direct [0,10), buffered 1→2 [10,12), 3→2 [15,20).
	if math.Abs(res.Finish-20) > 1e-9 {
		t.Errorf("finish = %g, want 20", res.Finish)
	}
}

func TestBufferedCapacityValidation(t *testing.T) {
	net := NewStatic(netmodel.Gusto())
	plan := unitPlan(5, [][]int{{1}, {}, {}, {}, {}})
	if _, err := RunBuffered(net, plan, 0); err == nil {
		t.Error("capacity 0 accepted")
	}
}

func TestBufferedRespectsLowerBound(t *testing.T) {
	// Buffering decouples sender and receiver but each message still
	// occupies the sender's port and the receiver's application for its
	// full duration, so the model's lower bound survives. (Completion
	// relative to the exclusive engine can go either way: the sender
	// frees early, but store-and-forward doubles per-message pipeline
	// latency.)
	for seed := int64(30); seed < 36; seed++ {
		rng := rand.New(rand.NewSource(seed))
		perf := netmodel.RandomPerf(rng, 7, netmodel.GustoGuided())
		sizes := workload.Sizes(rng, workload.DefaultSpec(workload.Mixed, 7))
		m, err := model.Build(perf, sizes)
		if err != nil {
			t.Fatal(err)
		}
		r, err := sched.NewOpenShop().Schedule(m)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := PlanFromSchedule(r.Schedule, sizes)
		if err != nil {
			t.Fatal(err)
		}
		net := NewStatic(perf)
		buf, err := RunBuffered(net, plan, 8)
		if err != nil {
			t.Fatal(err)
		}
		if buf.Finish < m.LowerBound()-1e-9 {
			t.Errorf("seed %d: buffered finish %g below lower bound %g", seed, buf.Finish, m.LowerBound())
		}
		if len(buf.Schedule.Events) != plan.Events() {
			t.Errorf("seed %d: executed %d wire events, want %d", seed, len(buf.Schedule.Events), plan.Events())
		}
	}
}

func TestCheckpointNoCheckpointsEqualsRun(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	perf := netmodel.RandomPerf(rng, 6, netmodel.GustoGuided())
	sizes := model.UniformSizes(6, 1<<19)
	m, err := model.Build(perf, sizes)
	if err != nil {
		t.Fatal(err)
	}
	r, err := sched.NewOpenShop().Schedule(m)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := PlanFromSchedule(r.Schedule, sizes)
	if err != nil {
		t.Fatal(err)
	}
	net := NewStatic(perf)
	observe := func(float64) *netmodel.Perf { return net.Perf() }

	plain, err := Run(net, plan)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := RunCheckpointed(net, observe, plan, NoCheckpoints{}, KeepOrder)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Checkpoints != 0 {
		t.Errorf("NoCheckpoints replanned %d times", ck.Checkpoints)
	}
	if math.Abs(ck.Finish-plain.Finish) > 1e-9 {
		t.Errorf("checkpointed finish %g != plain %g", ck.Finish, plain.Finish)
	}
}

func TestCheckpointKeepOrderInvariantOnStaticNetwork(t *testing.T) {
	// With a static network and the identity replanner, checkpoints must
	// not change the outcome: state carry-over means no barrier.
	rng := rand.New(rand.NewSource(41))
	perf := netmodel.RandomPerf(rng, 7, netmodel.GustoGuided())
	sizes := model.UniformSizes(7, 1<<19)
	m, err := model.Build(perf, sizes)
	if err != nil {
		t.Fatal(err)
	}
	r, err := sched.NewGreedy().Schedule(m)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := PlanFromSchedule(r.Schedule, sizes)
	if err != nil {
		t.Fatal(err)
	}
	net := NewStatic(perf)
	observe := func(float64) *netmodel.Perf { return net.Perf() }
	plain, err := Run(net, plan)
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range []CheckpointPolicy{Halving{}, EveryEvents{K: 5}} {
		ck, err := RunCheckpointed(net, observe, plan, pol, KeepOrder)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(ck.Finish-plain.Finish) > 1e-9 {
			t.Errorf("%s: finish %g != plain %g", pol.Name(), ck.Finish, plain.Finish)
		}
		if ck.Checkpoints == 0 {
			t.Errorf("%s: expected checkpoints", pol.Name())
		}
		if len(ck.Schedule.Events) != len(plain.Schedule.Events) {
			t.Errorf("%s: lost events", pol.Name())
		}
	}
}

func TestCheckpointAdaptationHelpsUnderDrift(t *testing.T) {
	// Bandwidths shift dramatically mid-exchange. Rescheduling the tail
	// with fresh estimates should on average beat keeping the stale
	// order. Compare mean completion over several seeds.
	var keepSum, adaptSum float64
	const trials = 10
	for seed := int64(50); seed < 50+trials; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 12
		before := netmodel.RandomPerf(rng, n, netmodel.GustoGuided())
		// A fifth of the links lose 10× bandwidth mid-exchange.
		after := before.Clone()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j && rng.Float64() < 0.2 {
					pp := after.At(i, j)
					pp.Bandwidth /= 10
					after.Set(i, j, pp)
				}
			}
		}
		sizes := model.UniformSizes(n, 1<<20)
		m, err := model.Build(before, sizes)
		if err != nil {
			t.Fatal(err)
		}
		r, err := sched.NewOpenShop().Schedule(m)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := PlanFromSchedule(r.Schedule, sizes)
		if err != nil {
			t.Fatal(err)
		}
		// Shift at a quarter of the planned completion.
		shift := r.CompletionTime() / 4
		pw, err := NewPiecewise([]Epoch{{Start: 0, Perf: before}, {Start: shift, Perf: after}})
		if err != nil {
			t.Fatal(err)
		}
		keep, err := RunCheckpointed(pw, pw.At, plan, EveryEvents{K: n}, KeepOrder)
		if err != nil {
			t.Fatal(err)
		}
		adapt, err := RunCheckpointed(pw, pw.At, plan, EveryEvents{K: n}, ReplanOpenShop)
		if err != nil {
			t.Fatal(err)
		}
		keepSum += keep.Finish
		adaptSum += adapt.Finish
	}
	if adaptSum > keepSum*1.01 {
		t.Errorf("adaptive rescheduling (%g) did not beat stale order (%g)", adaptSum/trials, keepSum/trials)
	}
}

func TestCheckpointAdaptationNeutralOnStaticNetwork(t *testing.T) {
	// With no drift, state-aware rescheduling must be roughly free:
	// replanning with the same information should not derail execution.
	var keepSum, adaptSum float64
	const trials = 6
	for seed := int64(70); seed < 70+trials; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 10
		perf := netmodel.RandomPerf(rng, n, netmodel.GustoGuided())
		sizes := model.UniformSizes(n, 1<<20)
		m, err := model.Build(perf, sizes)
		if err != nil {
			t.Fatal(err)
		}
		r, err := sched.NewOpenShop().Schedule(m)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := PlanFromSchedule(r.Schedule, sizes)
		if err != nil {
			t.Fatal(err)
		}
		net := NewStatic(perf)
		observe := func(float64) *netmodel.Perf { return net.Perf() }
		keep, err := RunCheckpointed(net, observe, plan, EveryEvents{K: n}, KeepOrder)
		if err != nil {
			t.Fatal(err)
		}
		adapt, err := RunCheckpointed(net, observe, plan, EveryEvents{K: n}, ReplanOpenShop)
		if err != nil {
			t.Fatal(err)
		}
		keepSum += keep.Finish
		adaptSum += adapt.Finish
	}
	if adaptSum > keepSum*1.05 {
		t.Errorf("static-network rescheduling cost too much: adapt %g vs keep %g", adaptSum/trials, keepSum/trials)
	}
}

func TestReplanOpenShopPreservesPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	perf := netmodel.RandomPerf(rng, 6, netmodel.GustoGuided())
	rem := unitPlan(6, [][]int{{3, 1}, {2}, {}, {0, 4, 5}, {}, {1}})
	out, err := ReplanOpenShop(perf, rem, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	pairs := func(p *Plan) map[timing.Pair]int {
		m := map[timing.Pair]int{}
		for i, dsts := range p.Order {
			for _, j := range dsts {
				m[timing.Pair{Src: i, Dst: j}]++
			}
		}
		return m
	}
	a, b := pairs(rem), pairs(out)
	if len(a) != len(b) {
		t.Fatalf("pair count changed: %d vs %d", len(a), len(b))
	}
	for pr, k := range a {
		if b[pr] != k {
			t.Fatalf("pair %v sent %d times after replanning, want %d", pr, b[pr], k)
		}
	}
}

func TestReplanOpenShopShapeMismatch(t *testing.T) {
	rem := unitPlan(3, [][]int{{1}, {}, {}})
	if _, err := ReplanOpenShop(netmodel.Gusto(), rem, nil, 0); err == nil {
		t.Error("shape mismatch accepted")
	}
}

// TestReplanOpenShopFailsClosed: a State that does not cover every
// processor, or a time the estimate cannot give, is an error rather
// than a plan.
func TestReplanOpenShopFailsClosed(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	perf := netmodel.RandomPerf(rng, 4, netmodel.GustoGuided())
	rem := unitPlan(4, [][]int{{1, 2}, {3}, {}, {0}})
	if _, err := ReplanOpenShop(perf, rem, NewState(4), 0); err != nil {
		t.Fatal(err)
	}
	short := NewState(4)
	short.RecvFree = short.RecvFree[:3]
	if _, err := ReplanOpenShop(perf, rem, short, 0); err == nil {
		t.Error("a State for 3 receivers was accepted for P=4")
	}
	short = NewState(3)
	if _, err := ReplanOpenShop(perf, rem, short, 0); err == nil {
		t.Error("a State for P=3 was accepted for P=4")
	}
	cut := perf.Clone()
	cut.Set(1, 3, netmodel.PairPerf{Latency: 0.01, Bandwidth: 0})
	if _, err := ReplanOpenShop(cut, rem, NewState(4), 0); err == nil {
		t.Error("a zero-bandwidth pair in the remaining plan was planned")
	}
}

func TestCheckpointPolicyNames(t *testing.T) {
	if NoCheckpoints.Name(NoCheckpoints{}) != "none" {
		t.Error("NoCheckpoints name")
	}
	if (EveryEvents{K: 3}).Name() != "every-3" {
		t.Error("EveryEvents name")
	}
	if (Halving{}).Name() != "halving" {
		t.Error("Halving name")
	}
	if (Halving{}).NextBudget(5) != 3 {
		t.Error("Halving budget")
	}
}

func TestRunCheckpointedRequiresObserve(t *testing.T) {
	net := NewStatic(netmodel.Gusto())
	plan := unitPlan(5, [][]int{{1}, {}, {}, {}, {}})
	if _, err := RunCheckpointed(net, nil, plan, Halving{}, KeepOrder); err == nil {
		t.Error("nil observe accepted")
	}
}

func TestRunCheckpointedRejectsBadReplanner(t *testing.T) {
	net := NewStatic(netmodel.Gusto())
	plan := unitPlan(5, [][]int{{1, 2}, {0}, {}, {}, {}})
	evil := func(_ *netmodel.Perf, rem *Plan, _ *State, _ float64) (*Plan, error) {
		c := rem.Clone()
		for i := range c.Order {
			c.Order[i] = nil // drop everything
		}
		return c, nil
	}
	if _, err := RunCheckpointed(net, func(float64) *netmodel.Perf { return netmodel.Gusto() }, plan, EveryEvents{K: 1}, evil); err == nil {
		t.Error("replanner that drops events accepted")
	}
}

func TestStateClone(t *testing.T) {
	st := NewState(3)
	st.SendFree[1] = 5
	c := st.Clone()
	c.SendFree[1] = 9
	if st.SendFree[1] != 5 {
		t.Error("State.Clone shares storage")
	}
}

func TestTopologyNetworkSharing(t *testing.T) {
	topo := netmodel.ExampleTopology(2)
	tn, err := NewTopologyNetwork(topo)
	if err != nil {
		t.Fatal(err)
	}
	// The engine's contract: BeginFlow precedes the duration query, so
	// the flow counts toward its own share. Alone, host 0 (Site1) to
	// host 2 (Site2) sees the unshared bottleneck.
	tn.BeginFlow(0, 2, 0)
	alone := tn.TransferTime(0, 2, 1<<20, 0)
	tn.EndFlow(0, 2, 0)
	// A concurrent flow over the same route halves the share.
	tn.BeginFlow(1, 3, 0)
	tn.BeginFlow(0, 2, 0)
	shared := tn.TransferTime(0, 2, 1<<20, 0)
	tn.EndFlow(0, 2, 0)
	if shared <= alone {
		t.Errorf("sharing should slow the transfer: alone=%g shared=%g", alone, shared)
	}
	tn.EndFlow(1, 3, 0)
	tn.BeginFlow(0, 2, 0)
	if got := tn.TransferTime(0, 2, 1<<20, 0); got != alone {
		t.Errorf("after EndFlow the share should be restored: %g vs %g", got, alone)
	}
	tn.EndFlow(0, 2, 0)
	// Disjoint flows (inside Site3) do not affect the Site1-Site2 route.
	tn.BeginFlow(4, 5, 0)
	tn.BeginFlow(0, 2, 0)
	if got := tn.TransferTime(0, 2, 1<<20, 0); got != alone {
		t.Errorf("disjoint flow changed the duration: %g vs %g", got, alone)
	}
	tn.EndFlow(0, 2, 0)
	tn.EndFlow(4, 5, 0)
}

func TestTopologyNetworkSelfAndCounts(t *testing.T) {
	topo := netmodel.ExampleTopology(1)
	tn, err := NewTopologyNetwork(topo)
	if err != nil {
		t.Fatal(err)
	}
	if tn.TransferTime(1, 1, 1<<20, 0) != 0 {
		t.Error("self transfer should be free")
	}
	tn.BeginFlow(0, 1, 0)
	if tn.ActiveFlows("t3-1-2") != 1 {
		t.Error("flow not counted on the backbone")
	}
	tn.EndFlow(0, 1, 0)
	tn.EndFlow(0, 1, 0) // extra end must not go negative
	if tn.ActiveFlows("t3-1-2") != 0 {
		t.Error("flow count corrupted")
	}
	if tn.N() != 3 {
		t.Error("N wrong")
	}
}

func TestTopologyNetworkUnroutable(t *testing.T) {
	topo := netmodel.NewTopology([]netmodel.Site{
		{Name: "A", Hosts: 1, LAN: netmodel.Link{Name: "lanA", Latency: 0.001, Bandwidth: 1e6}},
		{Name: "B", Hosts: 1, LAN: netmodel.Link{Name: "lanB", Latency: 0.001, Bandwidth: 1e6}},
	})
	if _, err := NewTopologyNetwork(topo); err == nil {
		t.Error("unroutable topology accepted")
	}
}

func TestEngineAppliesLinkSharing(t *testing.T) {
	// Two same-site senders each transfer to the other site over the
	// shared backbone simultaneously; with sharing each goes at half
	// rate, so the engine's completion must exceed the unshared
	// prediction.
	topo := netmodel.ExampleTopology(2)
	tn, err := NewTopologyNetwork(topo)
	if err != nil {
		t.Fatal(err)
	}
	plan := &Plan{
		N:     6,
		Order: [][]int{{2}, {3}, {}, {}, {}, {}},
		Sizes: model.UniformSizes(6, 1<<22),
	}
	sharedRes, err := Run(tn, plan)
	if err != nil {
		t.Fatal(err)
	}
	perf, err := topo.Perf()
	if err != nil {
		t.Fatal(err)
	}
	unsharedRes, err := Run(NewStatic(perf), plan)
	if err != nil {
		t.Fatal(err)
	}
	if sharedRes.Finish <= unsharedRes.Finish {
		t.Errorf("link sharing should slow concurrent transfers: shared=%g unshared=%g",
			sharedRes.Finish, unsharedRes.Finish)
	}
	// All flows released at the end.
	if tn.ActiveFlows("t3-1-2") != 0 || tn.ActiveFlows("lan1") != 0 {
		t.Error("engine leaked active flows")
	}
	// A serialized plan (single sender) should see no sharing penalty.
	serial := &Plan{
		N:     6,
		Order: [][]int{{2, 3}, {}, {}, {}, {}, {}},
		Sizes: model.UniformSizes(6, 1<<22),
	}
	sh, err := Run(tn, serial)
	if err != nil {
		t.Fatal(err)
	}
	un, err := Run(NewStatic(perf), serial)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sh.Finish-un.Finish) > 1e-9 {
		t.Errorf("serialized transfers should be unaffected by sharing: %g vs %g", sh.Finish, un.Finish)
	}
}
