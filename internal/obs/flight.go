package obs

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"sync"
	"time"
)

// FlightRecorder is an always-on, allocation-bounded ring of recent
// structured events. Subsystems record what just happened (admissions,
// ladder transitions, peer deaths) into a fixed-size ring for near-zero
// cost; when something goes wrong — SIGQUIT, a chaos-test failure, a
// health-ladder degradation — Trigger dumps the ring to disk so the
// post-mortem has the last N events without tracing having been enabled
// in advance.
//
// Record performs zero heap allocations in steady state: the ring is
// preallocated, event/subsystem names must be string constants (never
// concatenated at the call site), and the counters are atomics. All
// methods are no-ops on a nil receiver.

// FlightEvent is one recorded event. A and B are event-specific small
// integers (queue depth, rung index, byte counts...) so recording never
// formats strings.
type FlightEvent struct {
	Seq    uint64
	TimeNS int64  // wall clock, UnixNano
	Sys    string // subsystem: "serve", "comm", "exec"
	Event  string // constant event name, e.g. "shed", "rung_down"
	Trace  uint64 // trace ID when request-scoped, else 0
	A, B   int64
}

// defaultFlightSize is the ring capacity when none is given.
const defaultFlightSize = 1024

// dumpMinInterval rate-limits Trigger so a flapping health ladder
// cannot spam the disk.
const dumpMinInterval = time.Second

// FlightRecorder is safe for concurrent use.
type FlightRecorder struct {
	mu       sync.Mutex
	ring     []FlightEvent
	seq      uint64
	clock    func() time.Time
	dumpPath string
	lastDump time.Time
	events   *Counter
	dumps    *Counter
}

// NewFlightRecorder creates a recorder with the given ring capacity
// (<=0 selects the default, 1024). A nil clock selects time.Now.
func NewFlightRecorder(size int, clock func() time.Time) *FlightRecorder {
	if size <= 0 {
		size = defaultFlightSize
	}
	if clock == nil {
		clock = time.Now
	}
	return &FlightRecorder{ring: make([]FlightEvent, size), clock: clock}
}

// WithMetrics wires the recorder's event/dump counters into r and
// returns the recorder for chaining. The counters are unlabeled:
// labeled lookups would allocate on the record path.
func (f *FlightRecorder) WithMetrics(r *Registry) *FlightRecorder {
	if f == nil {
		return nil
	}
	f.events = r.Counter(MetricFlightEvents, "Events recorded by the flight recorder.")
	f.dumps = r.Counter(MetricFlightDumps, "Flight-recorder dumps written to disk.")
	return f
}

// SetDumpPath sets where Trigger writes dumps. An empty path (the
// default) writes to the OS temp directory.
func (f *FlightRecorder) SetDumpPath(path string) {
	if f == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.dumpPath = path
}

// Record appends one event to the ring. Zero heap allocations: sys and
// event must be string constants. Safe (and free) on a nil receiver.
func (f *FlightRecorder) Record(sys, event string, trace uint64, a, b int64) {
	if f == nil {
		return
	}
	ts := f.clock().UnixNano()
	f.mu.Lock()
	slot := &f.ring[f.seq%uint64(len(f.ring))]
	f.seq++
	slot.Seq = f.seq
	slot.TimeNS = ts
	slot.Sys = sys
	slot.Event = event
	slot.Trace = trace
	slot.A = a
	slot.B = b
	f.mu.Unlock()
	f.events.Inc()
}

// Seq returns the total number of events ever recorded (0 on nil).
func (f *FlightRecorder) Seq() uint64 {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.seq
}

// Len returns how many events the ring currently holds (0 on nil).
func (f *FlightRecorder) Len() int {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.seq < uint64(len(f.ring)) {
		return int(f.seq)
	}
	return len(f.ring)
}

// Cap returns the ring capacity (0 on nil).
func (f *FlightRecorder) Cap() int {
	if f == nil {
		return 0
	}
	return len(f.ring)
}

// snapshot copies the ring oldest-first. Caller must hold f.mu.
func (f *FlightRecorder) snapshot() []FlightEvent {
	n := uint64(len(f.ring))
	held := f.seq
	if held > n {
		held = n
	}
	out := make([]FlightEvent, 0, held)
	for i := f.seq - held; i < f.seq; i++ {
		out = append(out, f.ring[i%n])
	}
	return out
}

// Snapshot returns the retained events, oldest first (nil on nil).
func (f *FlightRecorder) Snapshot() []FlightEvent {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.snapshot()
}

// Tail returns the most recent n events, oldest first (nil on nil).
func (f *FlightRecorder) Tail(n int) []FlightEvent {
	if f == nil {
		return nil
	}
	if n <= 0 {
		return nil
	}
	evs := f.Snapshot()
	if len(evs) > n {
		evs = evs[len(evs)-n:]
	}
	return evs
}

// WriteFlightEvents renders events one per line, oldest first — the
// shared human-readable format used by Dump, dump files, and statusz.
func WriteFlightEvents(w io.Writer, evs []FlightEvent) error {
	return writeFlightEvents(w, evs)
}

// writeFlightEvents renders events one per line, oldest first.
func writeFlightEvents(w io.Writer, evs []FlightEvent) error {
	for _, ev := range evs {
		t := time.Unix(0, ev.TimeNS).UTC().Format("15:04:05.000000")
		trace := "-"
		if ev.Trace != 0 {
			trace = FormatTraceID(ev.Trace)
		}
		if _, err := fmt.Fprintf(w, "%8d %s %-5s %-16s trace=%s a=%d b=%d\n",
			ev.Seq, t, ev.Sys, ev.Event, trace, ev.A, ev.B); err != nil {
			return err
		}
	}
	return nil
}

// Dump writes a human-readable rendering of the ring, oldest first. A
// nil recorder writes only the header.
func (f *FlightRecorder) Dump(w io.Writer) error {
	evs := f.Snapshot()
	if _, err := fmt.Fprintf(w, "# hetsched flight recorder: %d events\n", len(evs)); err != nil {
		return err
	}
	return writeFlightEvents(w, evs)
}

// Trigger dumps the ring to disk, rate-limited to one dump per second.
// reason becomes part of the dump header. Returns the path written and
// whether a dump happened (false when nil, rate-limited, or the write
// failed — flight dumps are best-effort and must never take down the
// subsystem that tripped them).
func (f *FlightRecorder) Trigger(reason string) (string, bool) {
	if f == nil {
		return "", false
	}
	now := f.clock()
	f.mu.Lock()
	if !f.lastDump.IsZero() && now.Sub(f.lastDump) < dumpMinInterval {
		f.mu.Unlock()
		return "", false
	}
	f.lastDump = now
	evs := f.snapshot()
	path := f.dumpPath
	f.mu.Unlock()

	if path == "" {
		path = fmt.Sprintf("%s/hetsched-flight-%d.dump", os.TempDir(), os.Getpid())
	}
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "# hetsched flight dump reason=%q at=%s events=%d\n",
		reason, now.UTC().Format(time.RFC3339Nano), len(evs))
	if err := writeFlightEvents(&buf, evs); err != nil {
		return "", false
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return "", false
	}
	f.dumps.Inc()
	return path, true
}
