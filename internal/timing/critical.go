package timing

import (
	"fmt"
	"strings"
)

// Critical-path analysis. The proof of Theorem 2 works with the
// dependence graph of a schedule: event B depends on event A when B
// starts exactly when A finishes at a shared sender or receiver port.
// The longest dependence chain ending at the last event explains the
// completion time — each link names the port that forced the wait —
// and is the natural diagnostic for why a schedule is slow.

// CriticalLink is one hop of a critical path.
type CriticalLink struct {
	Event Event
	// Port explains the dependence on the previous event: "sender" when
	// this event waited for its sender's previous send, "receiver" when
	// it waited for its receiver's previous receive, or "start" for the
	// chain's first event.
	Port string
}

// CriticalPath returns a longest dependence chain ending at the event
// that finishes last, walking tight dependences backwards. Ties are
// broken deterministically (sender port first, then lower source id).
// An empty schedule yields nil.
func CriticalPath(s *Schedule) []CriticalLink {
	if len(s.Events) == 0 {
		return nil
	}
	evs := s.ByStart()
	// Last-finishing event (ties: later start, then lower src).
	last := evs[0]
	for _, e := range evs[1:] {
		if e.Finish > last.Finish || (e.Finish == last.Finish && e.Start > last.Start) {
			last = e
		}
	}
	var path []CriticalLink
	cur := last
	// The iteration guard protects against pathological zero-duration
	// cycles in hand-built schedules.
	for guard := 0; guard <= len(evs); guard++ {
		prev, kind := tightPredecessor(evs, cur)
		path = append(path, CriticalLink{Event: cur, Port: portLabel(kind)})
		if kind == "" {
			break
		}
		cur = prev
	}
	// Reverse into chronological order and fix the first label.
	for a, b := 0, len(path)-1; a < b; a, b = a+1, b-1 {
		path[a], path[b] = path[b], path[a]
	}
	path[0].Port = "start"
	return path
}

func portLabel(kind string) string {
	if kind == "" {
		return "start"
	}
	return kind
}

// tightPredecessor finds an event that cur tightly waits on: one that
// finishes exactly at cur.Start and shares cur's sender or receiver.
func tightPredecessor(evs []Event, cur Event) (Event, string) {
	var best Event
	kind := ""
	for _, e := range evs {
		if e == cur || !closeTo(e.Finish, cur.Start) {
			continue
		}
		if e.Src == cur.Src {
			if kind == "" || kind == "receiver" || e.Src < best.Src {
				best, kind = e, "sender"
			}
		} else if e.Dst == cur.Dst && kind != "sender" {
			if kind == "" || e.Src < best.Src {
				best, kind = e, "receiver"
			}
		}
	}
	return best, kind
}

func closeTo(a, b float64) bool {
	d := a - b
	return d < timeEps && d > -timeEps
}

// FormatCriticalPath renders the path one event per line.
func FormatCriticalPath(path []CriticalLink) string {
	var sb strings.Builder
	for _, l := range path {
		fmt.Fprintf(&sb, "[%8.4g, %8.4g) %2d→%-2d via %s\n",
			l.Event.Start, l.Event.Finish, l.Event.Src, l.Event.Dst, l.Port)
	}
	return sb.String()
}

// PortUtilization reports, per processor, the fraction of the
// schedule's duration its send and receive ports were busy — the
// packing density the adaptive schedulers maximize.
type PortUtilization struct {
	Send []float64
	Recv []float64
}

// Utilization computes port busy fractions. An empty schedule reports
// zeros.
func Utilization(s *Schedule) PortUtilization {
	u := PortUtilization{Send: make([]float64, s.N), Recv: make([]float64, s.N)}
	total := s.CompletionTime()
	if total <= 0 {
		return u
	}
	for _, e := range s.Events {
		u.Send[e.Src] += e.Duration() / total
		u.Recv[e.Dst] += e.Duration() / total
	}
	return u
}

// BottleneckProcessor returns the processor with the highest combined
// port utilization and that value; -1 for an empty schedule.
func BottleneckProcessor(s *Schedule) (int, float64) {
	u := Utilization(s)
	best, bestV := -1, -1.0
	for p := 0; p < s.N; p++ {
		v := u.Send[p]
		if u.Recv[p] > v {
			v = u.Recv[p]
		}
		if v > bestV {
			best, bestV = p, v
		}
	}
	if best == -1 {
		return -1, 0
	}
	return best, bestV
}
