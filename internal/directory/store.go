// Package directory implements the framework's directory service — the
// component modelled on Globus MDS and the ReMoS API (Section 3.1)
// that supplies applications with current end-to-end network
// performance between every pair of processors. The package provides a
// concurrency-safe in-memory store with versioned snapshots, a TCP
// server speaking a JSON-line protocol, and a matching client, so
// schedules can be computed from fresh directory queries exactly as the
// paper prescribes.
package directory

import (
	"fmt"
	"sync"

	"hetsched/internal/calib"
	"hetsched/internal/netmodel"
)

// Store holds the current pairwise performance table. It is safe for
// concurrent use. Every mutation bumps a version counter so pollers
// can detect staleness cheaply.
type Store struct {
	mu      sync.RWMutex
	perf    *netmodel.Perf
	names   []string
	version uint64
}

// NewStore creates a store over an initial table. Names are optional
// human-readable processor names; pass nil to auto-name P0..Pn-1.
func NewStore(initial *netmodel.Perf, names []string) (*Store, error) {
	if initial == nil {
		return nil, fmt.Errorf("directory: nil initial table")
	}
	if err := initial.Validate(); err != nil {
		return nil, err
	}
	if names == nil {
		names = make([]string, initial.N())
		for i := range names {
			names[i] = fmt.Sprintf("P%d", i)
		}
	}
	if len(names) != initial.N() {
		return nil, fmt.Errorf("directory: %d names for %d processors", len(names), initial.N())
	}
	return &Store{
		perf:  initial.Clone(),
		names: append([]string(nil), names...),
	}, nil
}

// N returns the number of processors.
func (s *Store) N() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.perf.N()
}

// Names returns the processor names.
func (s *Store) Names() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]string(nil), s.names...)
}

// Version returns the current version counter.
func (s *Store) Version() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.version
}

// Snapshot returns a copy of the whole table and its version.
func (s *Store) Snapshot() (*netmodel.Perf, uint64) {
	return s.snapshotUnless(nil)
}

// snapshotUnless is Snapshot for a reader that may already hold the
// table at version *have: while the store is still there it returns a
// nil table and copies nothing. The comparison and the copy share one
// read lock, so "unchanged" can never race an update into vouching for
// a table the reader does not hold. A nil have always copies.
func (s *Store) snapshotUnless(have *uint64) (*netmodel.Perf, uint64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if have != nil && *have == s.version {
		return nil, s.version
	}
	return s.perf.Clone(), s.version
}

// Query returns the performance between one ordered pair.
func (s *Store) Query(src, dst int) (netmodel.PairPerf, uint64, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if src < 0 || src >= s.perf.N() || dst < 0 || dst >= s.perf.N() {
		return netmodel.PairPerf{}, 0, fmt.Errorf("directory: pair (%d,%d) out of range", src, dst)
	}
	return s.perf.At(src, dst), s.version, nil
}

// Update replaces the whole table and returns the new version.
func (s *Store) Update(perf *netmodel.Perf) (uint64, error) {
	if err := perf.Validate(); err != nil {
		return 0, err
	}
	s.mu.Lock()
	if perf.N() != s.perf.N() {
		n := s.perf.N()
		s.mu.Unlock()
		return 0, fmt.Errorf("directory: update is %d×%d but store holds %d×%d", perf.N(), perf.N(), n, n)
	}
	s.perf = perf.Clone()
	s.version++
	v := s.version
	s.mu.Unlock()
	return v, nil
}

// ApplyCalibration folds a batch of fitted calibration updates into
// the table; it is the store's only per-pair write. Every entry is
// bounds-checked at this boundary — index range, no diagonal,
// netmodel.PairPerf.Check — regardless of the confidence the sender
// claims; offending entries are counted in rejected and skipped, so
// one garbage update can never poison the shared table or veto its
// batch-mates. The version bumps once per batch (not per entry) and
// only when at least one entry applied, so version pollers see one
// change per feed push, and a fully rejected batch is invisible. The
// returned version is current either way.
func (s *Store) ApplyCalibration(updates []calib.Update) (applied, rejected int, version uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.perf.N()
	for _, u := range updates {
		pp := netmodel.PairPerf{Latency: u.Latency, Bandwidth: u.Bandwidth}
		if u.Src < 0 || u.Src >= n || u.Dst < 0 || u.Dst >= n || u.Src == u.Dst || pp.Check() != nil {
			rejected++
			continue
		}
		s.perf.Set(u.Src, u.Dst, pp)
		applied++
	}
	if applied > 0 {
		s.version++
	}
	return applied, rejected, s.version
}
