package qos

import (
	"math"
	"math/rand"
	"testing"

	"hetsched/internal/model"
	"hetsched/internal/netmodel"
	"hetsched/internal/sched"
	"hetsched/internal/timing"
)

func mkProblem(n int, msgs []Message) *Problem { return &Problem{N: n, Messages: msgs} }

func TestValidate(t *testing.T) {
	good := mkProblem(3, []Message{{Src: 0, Dst: 1, Duration: 1, Deadline: 5}})
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []*Problem{
		mkProblem(3, []Message{{Src: 0, Dst: 3, Duration: 1}}),
		mkProblem(3, []Message{{Src: 1, Dst: 1, Duration: 1}}),
		mkProblem(3, []Message{{Src: 0, Dst: 1, Duration: -1}}),
		mkProblem(3, []Message{{Src: 0, Dst: 1, Duration: math.Inf(1)}}),
		mkProblem(3, []Message{{Src: 0, Dst: 1, Duration: 1, Deadline: math.NaN()}}),
	}
	for k, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d accepted", k)
		}
	}
}

func TestEDFOrdersByDeadline(t *testing.T) {
	// Two messages from the same sender: the later-deadline one is
	// longer. EDF must run the tight-deadline message first.
	p := mkProblem(3, []Message{
		{Src: 0, Dst: 1, Duration: 5, Deadline: 100},
		{Src: 0, Dst: 2, Duration: 1, Deadline: 2},
	})
	res, err := Schedule(p, EDF)
	if err != nil {
		t.Fatal(err)
	}
	met := res.Metrics()
	if met.Missed != 0 {
		t.Errorf("EDF missed %d deadlines: %+v", met.Missed, res.Scheduled)
	}
	// Makespan-only runs the long message first and misses the tight
	// deadline.
	res2, err := Schedule(p, MakespanOnly)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Metrics().Missed != 1 {
		t.Errorf("makespan-only should miss the tight deadline: %+v", res2.Scheduled)
	}
}

func TestPriorityDominatesDeadline(t *testing.T) {
	p := mkProblem(3, []Message{
		{Src: 0, Dst: 1, Duration: 2, Deadline: 2, Priority: 0},
		{Src: 0, Dst: 2, Duration: 2, Deadline: 50, Priority: 5},
	})
	res, err := Schedule(p, EDF)
	if err != nil {
		t.Fatal(err)
	}
	if res.Scheduled[0].Priority != 5 {
		t.Errorf("high-priority message should go first: %+v", res.Scheduled)
	}
}

func TestScheduleRespectsModelConstraints(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 8
	var msgs []Message
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			msgs = append(msgs, Message{
				Src: i, Dst: j,
				Duration: rng.Float64() * 3,
				Deadline: rng.Float64() * 40,
				Priority: rng.Intn(3),
			})
		}
	}
	for _, pol := range []Policy{EDF, MakespanOnly} {
		res, err := Schedule(mkProblem(n, msgs), pol)
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Schedule.Validate(nil); err != nil {
			t.Fatalf("%s produced invalid schedule: %v", pol, err)
		}
		if len(res.Scheduled) != len(msgs) {
			t.Fatalf("%s lost messages", pol)
		}
	}
}

func TestEDFBeatsMakespanOnDeadlines(t *testing.T) {
	// Random problems with mixed urgency: EDF should never miss more
	// deadlines than the deadline-blind policy on average, and usually
	// strictly fewer.
	var edfMissed, msMissed int
	for seed := int64(10); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 6
		var msgs []Message
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i == j {
					continue
				}
				d := rng.Float64() * 2
				msgs = append(msgs, Message{
					Src: i, Dst: j, Duration: d,
					Deadline: d + rng.Float64()*10,
				})
			}
		}
		e, err := Schedule(mkProblem(n, msgs), EDF)
		if err != nil {
			t.Fatal(err)
		}
		m, err := Schedule(mkProblem(n, msgs), MakespanOnly)
		if err != nil {
			t.Fatal(err)
		}
		edfMissed += e.Metrics().Missed
		msMissed += m.Metrics().Missed
	}
	if edfMissed > msMissed {
		t.Errorf("EDF missed %d deadlines vs makespan-only %d", edfMissed, msMissed)
	}
	if msMissed == 0 {
		t.Log("warning: deadline mix too loose to stress the policies")
	}
}

func TestMetrics(t *testing.T) {
	r := &Result{
		Scheduled: []Scheduled{
			{Message: Message{Deadline: 5}, Start: 0, Finish: 4},
			{Message: Message{Deadline: 3}, Start: 0, Finish: 7},
		},
		Schedule: &timing.Schedule{N: 2, Events: []timing.Event{{Src: 0, Dst: 1, Start: 0, Finish: 7}}},
	}
	m := r.Metrics()
	if m.Missed != 1 || m.MaxLateness != 4 || m.Messages != 2 {
		t.Errorf("Metrics = %+v", m)
	}
}

func TestPolicyString(t *testing.T) {
	if EDF.String() != "edf" || MakespanOnly.String() != "makespan-only" {
		t.Error("policy names wrong")
	}
	if Policy(9).String() == "" {
		t.Error("unknown policy should stringify")
	}
}

func TestScheduleCriticalOptimalForCritical(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	perf := netmodel.RandomPerf(rng, 9, netmodel.GustoGuided())
	m, err := model.BuildUniform(perf, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	for _, crit := range []int{0, 4, 8} {
		res, err := ScheduleCritical(m, crit)
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Schedule.ValidateTotalExchange(m); err != nil {
			t.Fatalf("critical schedule invalid: %v", err)
		}
		// The critical processor's completion equals its own workload —
		// the minimum possible.
		want := math.Max(m.RowSum(crit), m.ColSum(crit))
		if math.Abs(res.CriticalDone-want) > 1e-9 {
			t.Errorf("crit %d done at %g, want %g", crit, res.CriticalDone, want)
		}
		if got := CriticalDone(res.Schedule, crit); math.Abs(got-res.CriticalDone) > 1e-9 {
			t.Errorf("CriticalDone helper disagrees: %g vs %g", got, res.CriticalDone)
		}
	}
}

func TestScheduleCriticalVsOpenShop(t *testing.T) {
	// Prioritizing the critical processor should release it no later
	// than the makespan-oriented open shop schedule does.
	rng := rand.New(rand.NewSource(3))
	perf := netmodel.RandomPerf(rng, 10, netmodel.GustoGuided())
	m, err := model.BuildUniform(perf, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	crit := 3
	res, err := ScheduleCritical(m, crit)
	if err != nil {
		t.Fatal(err)
	}
	os, err := sched.NewOpenShop().Schedule(m)
	if err != nil {
		t.Fatal(err)
	}
	if res.CriticalDone > CriticalDone(os.Schedule, crit)+1e-9 {
		t.Errorf("critical scheduler (%g) releases the critical node later than openshop (%g)",
			res.CriticalDone, CriticalDone(os.Schedule, crit))
	}
}

// TestScheduleCriticalFailsClosed: a NaN time is an error whether the
// critical phase or the fill would schedule it.
func TestScheduleCriticalFailsClosed(t *testing.T) {
	const crit = 1
	for _, pr := range []timing.Pair{{Src: 2, Dst: 3}, {Src: crit, Dst: 3}, {Src: 3, Dst: crit}} {
		m := model.ExampleMatrix()
		m.Set(pr.Src, pr.Dst, math.NaN())
		if res, err := ScheduleCritical(m, crit); err == nil {
			t.Errorf("NaN at %d→%d accepted, critical done at %v", pr.Src, pr.Dst, res.CriticalDone)
		}
	}
}

func TestScheduleCriticalRange(t *testing.T) {
	m := model.ExampleMatrix()
	if _, err := ScheduleCritical(m, -1); err == nil {
		t.Error("negative critical accepted")
	}
	if _, err := ScheduleCritical(m, 5); err == nil {
		t.Error("out-of-range critical accepted")
	}
}
