package obs

import (
	"io"
	"sort"
	"sync"
)

// TailSampler retains full span trees only for interesting requests —
// the ones that erred, got shed, or landed in the latency tail — inside
// a fixed-size FIFO ring, so trace memory stays bounded under a 10×
// overload storm while the requests worth debugging are guaranteed to
// be captured. The keep/drop decision belongs to the caller (the serve
// layer knows its p99 and outcomes); the sampler enforces the cap and
// renders what survived.

// defaultTailCap is the retained-trace cap when none is given.
const defaultTailCap = 256

// TailSampler is safe for concurrent use; all methods are no-ops on a
// nil receiver.
type TailSampler struct {
	mu       sync.Mutex
	capacity int
	traces   []*ReqTrace // FIFO, oldest first
	retained uint64
	dropped  uint64
	evicted  uint64
}

// NewTailSampler creates a sampler retaining at most capacity traces
// (<=0 selects the default, 256).
func NewTailSampler(capacity int) *TailSampler {
	if capacity <= 0 {
		capacity = defaultTailCap
	}
	return &TailSampler{capacity: capacity}
}

// Offer hands the sampler a finished span tree. keep=false drops it
// (counted); keep=true retains it, evicting the oldest retained trace
// when the ring is full. Reports whether the trace was retained.
func (s *TailSampler) Offer(rt *ReqTrace, keep bool) bool {
	if s == nil {
		return false
	}
	if rt == nil {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !keep {
		s.dropped++
		return false
	}
	if len(s.traces) >= s.capacity {
		n := copy(s.traces, s.traces[1:])
		s.traces = s.traces[:n]
		s.evicted++
	}
	s.traces = append(s.traces, rt)
	s.retained++
	return true
}

// Has reports whether a trace with the given ID is currently retained.
func (s *TailSampler) Has(id uint64) bool {
	if s == nil {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, rt := range s.traces {
		if rt.TraceID() == id {
			return true
		}
	}
	return false
}

// Len returns the number of retained traces (0 on nil).
func (s *TailSampler) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.traces)
}

// Cap returns the retention cap (0 on nil).
func (s *TailSampler) Cap() int {
	if s == nil {
		return 0
	}
	return s.capacity
}

// Stats returns cumulative offered-and-kept, offered-and-dropped, and
// evicted-after-retention counts (zeros on nil).
func (s *TailSampler) Stats() (retained, dropped, evicted uint64) {
	if s == nil {
		return 0, 0, 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.retained, s.dropped, s.evicted
}

// Snapshot returns the retained traces, oldest first (nil on nil).
func (s *TailSampler) Snapshot() []*ReqTrace {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*ReqTrace(nil), s.traces...)
}

// Slowest returns up to n retained traces ordered by recorded latency,
// slowest first (nil on nil).
func (s *TailSampler) Slowest(n int) []*ReqTrace {
	if s == nil {
		return nil
	}
	if n <= 0 {
		return nil
	}
	all := s.Snapshot()
	sort.SliceStable(all, func(a, b int) bool { return all[a].Latency() > all[b].Latency() })
	if len(all) > n {
		all = all[:n]
	}
	return all
}

// WritePerfetto renders every retained span tree, oldest first, with
// the package's WritePerfetto. A nil sampler writes a loadable empty
// trace.
func (s *TailSampler) WritePerfetto(w io.Writer) error {
	if s == nil {
		return WritePerfetto(w)
	}
	return WritePerfetto(w, s.Snapshot()...)
}
