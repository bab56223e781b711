// Package faults is the chaos harness for the resilience layer: a
// deterministic, seeded fault injector for the places the framework
// touches an unreliable world — the directory's, the plan service's
// and the executor's connections (drops, stalls, partial writes,
// trickling peers, drifting per-pair timings) and the simulated network
// (mid-run link degradation and failure). Everything is driven by
// explicit seeds so a chaos run that finds a bug replays exactly.
//
// The injectors plug into seams the production code already exposes:
// directory.Server.SetConnWrapper accepts ConnInjector.Wrap, and
// Network implements sim.Network while supplying the observe function
// and fault times that sim.RunReactive needs for checkpoint + re-plan.
package faults

import (
	"errors"
	"math/rand"
	"net"
	"sync"
	"time"
)

// ErrInjected marks every failure the harness fabricates, so tests can
// tell injected faults from real bugs.
var ErrInjected = errors.New("faults: injected failure")

// ConnConfig sets the per-operation fault probabilities for wrapped
// connections. Probabilities are evaluated independently on each Read
// and Write.
type ConnConfig struct {
	// Seed drives all rolls; 0 selects 1.
	Seed int64
	// DropProb severs the connection (the underlying conn is closed and
	// the operation fails).
	DropProb float64
	// StallProb delays the operation by Stall before it proceeds.
	StallProb float64
	// Stall is the injected delay; 0 selects 5ms.
	Stall time.Duration
	// PartialProb makes a write deliver only half its bytes before the
	// connection is severed — the torn-frame case the client's broken
	// state machine exists for.
	PartialProb float64
}

// ConnCounts reports what a ConnInjector has done.
type ConnCounts struct {
	Conns    int // connections wrapped
	Drops    int
	Stalls   int
	Partials int
}

// ConnInjector wraps net.Conns with seeded faults. One injector may
// wrap many connections; all rolls draw from the injector's single
// sequence, so a fixed seed and call order replay the same faults.
type ConnInjector struct {
	mu  sync.Mutex
	rng *rand.Rand
	cfg ConnConfig
	ctr ConnCounts
}

// NewConnInjector builds an injector.
func NewConnInjector(cfg ConnConfig) *ConnInjector {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Stall <= 0 {
		cfg.Stall = 5 * time.Millisecond
	}
	return &ConnInjector{rng: rand.New(rand.NewSource(cfg.Seed)), cfg: cfg}
}

// Counts returns a copy of the injector's counters.
func (in *ConnInjector) Counts() ConnCounts {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.ctr
}

// Wrap returns a connection that misbehaves per the config. Close
// closes the underlying connection, so wrapped conns are safe to hand
// to directory.Server.SetConnWrapper.
func (in *ConnInjector) Wrap(c net.Conn) net.Conn {
	in.mu.Lock()
	in.ctr.Conns++
	in.mu.Unlock()
	return &faultyConn{Conn: c, in: in}
}

// roll decides the fate of one operation.
type fate int

const (
	fateOK fate = iota
	fateDrop
	fateStall
	fatePartial
)

func (in *ConnInjector) roll(write bool) fate {
	in.mu.Lock()
	defer in.mu.Unlock()
	x := in.rng.Float64()
	if x < in.cfg.DropProb {
		in.ctr.Drops++
		return fateDrop
	}
	x -= in.cfg.DropProb
	if write {
		if x < in.cfg.PartialProb {
			in.ctr.Partials++
			return fatePartial
		}
		x -= in.cfg.PartialProb
	}
	if x < in.cfg.StallProb {
		in.ctr.Stalls++
		return fateStall
	}
	return fateOK
}

// faultyConn applies the injector's faults to one connection.
type faultyConn struct {
	net.Conn
	in *ConnInjector
}

func (f *faultyConn) Read(p []byte) (int, error) {
	switch f.in.roll(false) {
	case fateDrop:
		f.Conn.Close()
		return 0, errInjectedOp("read dropped")
	case fateStall:
		time.Sleep(f.in.cfg.Stall)
	}
	return f.Conn.Read(p)
}

func (f *faultyConn) Write(p []byte) (int, error) {
	switch f.in.roll(true) {
	case fateDrop:
		f.Conn.Close()
		return 0, errInjectedOp("write dropped")
	case fatePartial:
		n := len(p) / 2
		if n > 0 {
			f.Conn.Write(p[:n])
		}
		f.Conn.Close()
		return n, errInjectedOp("partial write")
	case fateStall:
		time.Sleep(f.in.cfg.Stall)
	}
	return f.Conn.Write(p)
}

func errInjectedOp(what string) error {
	return &net.OpError{Op: what, Net: "fault", Err: ErrInjected}
}
