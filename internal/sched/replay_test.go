package sched_test

import (
	"fmt"
	"math/rand"
	"testing"

	"hetsched/internal/model"
	"hetsched/internal/netmodel"
	"hetsched/internal/qos"
	"hetsched/internal/sched"
	"hetsched/internal/timing"
)

// A plan is a pair sequence stored in the order it was timed: replaying
// the (Src, Dst) order of any schedule the library emits against the
// same matrix returns exactly its events, compared with ==. That is
// what lets the simulator and the executor read each sender's column
// in sequence order (timing.Schedule.Columns) instead of re-sorting it.
// BaselineBarrier, the lockstep ablation, is the one exception.

// replaysToItself fails unless timing.Replay of the events' pair order
// is the events. It reports whether a sender column holds two events
// at one start out of destination order, which the (start, dst) sort
// that sequence order replaced would have swapped.
func replaysToItself(t testing.TB, label string, m *model.Matrix, events []timing.Event) (tied bool) {
	t.Helper()
	seq := make([]timing.Pair, len(events))
	for k, e := range events {
		seq[k] = timing.Pair{Src: e.Src, Dst: e.Dst}
	}
	got, err := timing.Replay(m, seq, nil)
	if err != nil {
		t.Fatalf("%s: replay: %v", label, err)
	}
	for k := range events {
		if got[k] != events[k] {
			t.Fatalf("%s: event %d is %+v, its replay %+v", label, k, events[k], got[k])
		}
	}
	cols, err := (&timing.Schedule{N: m.N(), Events: events}).Columns()
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	for _, col := range cols {
		for k := 1; k < len(col); k++ {
			tied = tied || (col[k].Start == col[k-1].Start && col[k].Dst < col[k-1].Dst)
		}
	}
	return tied
}

// replayable returns every scheduler in sched.All whose events replay.
func replayable() []sched.Scheduler {
	var out []sched.Scheduler
	for _, s := range sched.All() {
		if s.Name() != (sched.BaselineBarrier{}).Name() {
			out = append(out, s)
		}
	}
	return out
}

func TestReplayMatchesSchedulers(t *testing.T) {
	schedulers := append(replayable(),
		sched.Greedy{Rotate: false},
		sched.NewMultiStartOpenShop(7),
		sched.OpenShop{TieBreak: sched.TieMostLoaded},
		sched.OpenShop{TieBreak: sched.TieLongestEvent})
	tiedFamilies := map[string]bool{}
	ps := []int{2, 3, 5, 8, 13, 24, 50}
	if testing.Short() {
		ps = ps[:5]
	}
	for _, p := range ps {
		rng := rand.New(rand.NewSource(int64(p)))
		names, ms := sched.TieFamilyMatrices(rng, p)
		gusto, err := model.BuildUniform(netmodel.RandomPerf(rng, p, netmodel.GustoGuided()), 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		names, ms = append(names, "gusto-guided"), append(ms, gusto)
		// Every other pair, and the pairs of one sender's ring neighbours.
		var pattern sched.Pattern
		for k, pr := range sched.TotalExchangePattern(p) {
			if k%2 == 0 || pr.Dst == (pr.Src+1)%p {
				pattern = append(pattern, pr)
			}
		}
		for k, m := range ms {
			label := fmt.Sprintf("P=%d %s", p, names[k])
			for _, s := range schedulers {
				r, err := s.Schedule(m)
				if err != nil {
					t.Fatalf("%s %s: %v", label, s.Name(), err)
				}
				if replaysToItself(t, label+" "+s.Name(), m, r.Schedule.Events) {
					tiedFamilies[names[k]] = true
				}
			}
			r, err := sched.PartialOpenShop(m, pattern)
			if err != nil {
				t.Fatalf("%s partial: %v", label, err)
			}
			replaysToItself(t, label+" partial", m, r.Schedule.Events)
			for _, critical := range []int{0, p / 2, p - 1} {
				c, err := qos.ScheduleCritical(m, critical)
				if err != nil {
					t.Fatalf("%s critical %d: %v", label, critical, err)
				}
				replaysToItself(t, fmt.Sprintf("%s critical %d", label, critical), m, c.Schedule.Events)
			}
		}
	}
	// Free events are where sequence order and the sort part ways.
	for _, name := range []string{"third-zero", "below-1e-12", "free-successor"} {
		if !tiedFamilies[name] {
			t.Errorf("no %s schedule has tied starts out of destination order", name)
		}
	}
}

func FuzzReplayMatchesSchedulers(f *testing.F) {
	for mode := byte(0); mode < 5; mode++ {
		rng := rand.New(rand.NewSource(int64(mode)))
		for _, p := range []uint8{2, 3, 5, 9, 17} {
			data := make([]byte, 1+rng.Intn(200))
			rng.Read(data)
			data[0] = mode
			f.Add(p, data)
		}
	}
	f.Add(uint8(12), []byte{1, 7}) // all-equal
	f.Add(uint8(12), []byte{4, 0}) // all-zero
	f.Add(uint8(20), []byte{1, 0, 0, 3})
	f.Fuzz(func(t *testing.T, p uint8, data []byte) {
		// The matchings are O(P⁴), so P stays small.
		n := int(p) % 33
		m := sched.FuzzMatrix(n, data)
		for _, s := range replayable() {
			r, err := s.Schedule(m)
			if err != nil {
				// Only what a scheduler emits has to replay; huge
				// magnitudes can defeat the matchings' solver.
				continue
			}
			replaysToItself(t, fmt.Sprintf("P=%d data=%x %s", n, data, s.Name()), m, r.Schedule.Events)
		}
	})
}
