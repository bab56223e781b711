package timing

import (
	"math"
	"strings"
	"testing"

	"hetsched/internal/model"
)

func TestCriticalPathChain(t *testing.T) {
	// A hand-built chain: 0→1 [0,4), then 0→2 [4,6) (sender dep), then
	// 3→2 [6,9) (receiver dep). An unrelated early event 4→5 [0,1).
	s := &Schedule{N: 6, Events: []Event{
		{Src: 0, Dst: 1, Start: 0, Finish: 4},
		{Src: 0, Dst: 2, Start: 4, Finish: 6},
		{Src: 3, Dst: 2, Start: 6, Finish: 9},
		{Src: 4, Dst: 5, Start: 0, Finish: 1},
	}}
	path := CriticalPath(s)
	if len(path) != 3 {
		t.Fatalf("path length %d, want 3: %+v", len(path), path)
	}
	if path[0].Event.Dst != 1 || path[0].Port != "start" {
		t.Errorf("path[0] = %+v", path[0])
	}
	if path[1].Event.Dst != 2 || path[1].Port != "sender" {
		t.Errorf("path[1] = %+v", path[1])
	}
	if path[2].Event.Src != 3 || path[2].Port != "receiver" {
		t.Errorf("path[2] = %+v", path[2])
	}
	out := FormatCriticalPath(path)
	if !strings.Contains(out, "via sender") || !strings.Contains(out, "via receiver") {
		t.Errorf("format missing ports:\n%s", out)
	}
}

func TestCriticalPathEmpty(t *testing.T) {
	if CriticalPath(&Schedule{N: 2}) != nil {
		t.Error("empty schedule should have nil path")
	}
}

func TestCriticalPathDurationsExplainMakespan(t *testing.T) {
	// For a step schedule evaluated asynchronously, the critical path's
	// durations plus its idle gaps must sum exactly to the makespan;
	// with tight dependences there are no gaps along the chain except
	// before the first event.
	m := model.ExampleMatrix()
	ss := &StepSchedule{N: 5}
	for j := 1; j < 5; j++ {
		var step Step
		for i := 0; i < 5; i++ {
			step = append(step, Pair{Src: i, Dst: (i + j) % 5})
		}
		ss.Steps = append(ss.Steps, step)
	}
	s, err := ss.Evaluate(m)
	if err != nil {
		t.Fatal(err)
	}
	path := CriticalPath(s)
	if len(path) == 0 {
		t.Fatal("no path")
	}
	if got := path[len(path)-1].Event.Finish; got != s.CompletionTime() {
		t.Errorf("path ends at %g, makespan %g", got, s.CompletionTime())
	}
	// Consecutive events are tight.
	for k := 1; k < len(path); k++ {
		if math.Abs(path[k].Event.Start-path[k-1].Event.Finish) > 1e-9 {
			t.Errorf("gap between path[%d] and path[%d]", k-1, k)
		}
	}
	// First event starts at 0 for a from-scratch evaluation.
	if path[0].Event.Start != 0 {
		t.Errorf("chain should start at 0, got %g", path[0].Event.Start)
	}
}

func TestUtilization(t *testing.T) {
	s := &Schedule{N: 2, Events: []Event{
		{Src: 0, Dst: 1, Start: 0, Finish: 4},
		{Src: 1, Dst: 0, Start: 4, Finish: 8},
	}}
	u := Utilization(s)
	if u.Send[0] != 0.5 || u.Recv[1] != 0.5 || u.Send[1] != 0.5 || u.Recv[0] != 0.5 {
		t.Errorf("utilization = %+v", u)
	}
	empty := Utilization(&Schedule{N: 2})
	if empty.Send[0] != 0 {
		t.Error("empty schedule should have zero utilization")
	}
}

func TestBottleneckProcessor(t *testing.T) {
	s := &Schedule{N: 3, Events: []Event{
		{Src: 0, Dst: 1, Start: 0, Finish: 2},
		{Src: 0, Dst: 2, Start: 2, Finish: 10},
	}}
	p, v := BottleneckProcessor(s)
	if p != 0 || v != 1.0 {
		t.Errorf("bottleneck = %d (%g), want 0 (1.0)", p, v)
	}
	if p, _ := BottleneckProcessor(&Schedule{N: 0}); p != -1 {
		t.Error("empty system should report -1")
	}
}
