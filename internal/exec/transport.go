package exec

import (
	"cmp"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// ErrPeerDead marks a transport-confirmed dead node: its endpoint has
// been killed and no connection to or from it can ever succeed again.
// Test with errors.Is; errors.As against *PeerDeadError recovers which
// node died.
var ErrPeerDead = errors.New("exec: peer dead")

// ErrTransportClosed is returned once a transport has been shut down.
var ErrTransportClosed = errors.New("exec: transport closed")

// PeerDeadError identifies the dead node behind an ErrPeerDead
// failure, so the executor knows which endpoint to drop from the plan.
type PeerDeadError struct {
	Node int
}

func (e *PeerDeadError) Error() string { return fmt.Sprintf("exec: peer P%d dead", e.Node) }

// Is makes errors.Is(err, ErrPeerDead) succeed on a PeerDeadError.
func (e *PeerDeadError) Is(target error) bool { return target == ErrPeerDead }

// Transport is the pluggable data plane the executor moves bytes over:
// a mesh of N node endpoints that can dial each other. Two transports
// ship with the package — Mem (in-process pipes, for tests and
// simulation-speed runs) and TCP (real loopback sockets with
// length-prefixed frames). Implementations must be safe for concurrent
// use; every method may be called from many executor goroutines.
type Transport interface {
	// N returns the number of node endpoints.
	N() int
	// Dial opens a connection from src to dst. After either endpoint
	// has been killed it fails with a *PeerDeadError naming the dead
	// node.
	Dial(src, dst int) (net.Conn, error)
	// Accept blocks for the next inbound connection at node. It
	// returns *PeerDeadError after the node is killed and
	// ErrTransportClosed after Close.
	Accept(node int) (net.Conn, error)
	// Kill makes node unreachable in both directions and severs its
	// open connections — the chaos harness's node-crash primitive.
	Kill(node int)
	// Close severs every connection and releases the endpoints. It is
	// idempotent.
	Close() error
}

// Mem is the in-process transport: every Dial makes one memPipe
// (memconn.go), a one-lock connection with socket semantics, and
// queues its accept half on the destination's Accept backlog. Each
// direction buffers a frame header or an ack the way a socket buffer
// would, and hands a larger write to the reader, which copies it once.
// A transfer allocates the pipe and usually one wake channel. An
// optional connection wrapper (faults.ConnInjector.Wrap or
// faults.LatencyInjector.Wrap) is applied to the accept-side half, the
// same seam directory.Server exposes, so chaos tests drive the
// executor without touching a real socket.
type Mem struct {
	n        int
	wrap     func(net.Conn) net.Conn
	pairWrap func(src, dst int, c net.Conn) net.Conn

	mu     sync.Mutex // guards dead, conns, closed — never held across I/O
	dead   []bool
	conns  [][]net.Conn // wrapped accept halves per node, for Kill and Close
	closed bool

	inbox  []chan net.Conn
	killed []chan struct{} // closed on Kill(node)
	done   chan struct{}   // closed on Close
}

// NewMem creates an in-process transport for n nodes.
func NewMem(n int) (*Mem, error) {
	if n < 0 {
		return nil, fmt.Errorf("exec: negative node count %d", n)
	}
	t := &Mem{
		n:      n,
		dead:   make([]bool, n),
		inbox:  make([]chan net.Conn, n),
		killed: make([]chan struct{}, n),
		done:   make(chan struct{}),
	}
	for i := 0; i < n; i++ {
		// A backlog, as a TCP listener has, so a dial to a busy port
		// returns at once and the sender's deadline bounds its wait:
		// room for one attempt from each of the n-1 other nodes, plus
		// one that timed out before the port discarded it.
		t.inbox[i] = make(chan net.Conn, n)
		t.killed[i] = make(chan struct{})
	}
	return t, nil
}

// SetConnWrapper installs a wrapper applied to the accept-side half of
// every future connection — the fault-injection seam. Call before the
// executor starts; nil restores the identity wrapper.
func (t *Mem) SetConnWrapper(wrap func(net.Conn) net.Conn) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.wrap = wrap
}

// SetPairWrapper installs a pair-aware wrapper applied to the
// accept-side half of every future connection, carrying the dialing
// (src, dst) identity — the seam a network emulator needs, since a
// plain SetConnWrapper cannot know which link a connection serves
// (faults.PairDelayInjector.WrapPair is the canonical user). Both
// wrappers may be set; the pair wrapper runs after the plain one. Call
// before the executor starts; nil removes it.
func (t *Mem) SetPairWrapper(wrap func(src, dst int, c net.Conn) net.Conn) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.pairWrap = wrap
}

// N implements Transport.
func (t *Mem) N() int { return t.n }

// checkEnds validates a (src, dst) pair against the live set. It
// reports the first problem: closed transport, out-of-range index, or
// a dead endpoint.
func (t *Mem) checkEnds(src, dst int) error {
	if src < 0 || src >= t.n || dst < 0 || dst >= t.n || src == dst {
		return fmt.Errorf("exec: invalid link %d→%d for %d nodes", src, dst, t.n)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return ErrTransportClosed
	}
	if t.dead[src] {
		return &PeerDeadError{Node: src}
	}
	if t.dead[dst] {
		return &PeerDeadError{Node: dst}
	}
	return nil
}

// Dial implements Transport.
func (t *Mem) Dial(src, dst int) (net.Conn, error) {
	if err := t.checkEnds(src, dst); err != nil {
		return nil, err
	}
	p := newMemPipe(t.killed[src], t.killed[dst], t.done)
	client, server := &p.end[0], &p.end[1]
	t.mu.Lock()
	wrap, pairWrap := t.wrap, t.pairWrap
	t.mu.Unlock()
	wrapped := net.Conn(server)
	if wrap != nil {
		wrapped = wrap(wrapped)
	}
	if pairWrap != nil {
		wrapped = pairWrap(src, dst, wrapped)
	}
	// Queue the server half on the destination's backlog. The selects
	// keep a dial from blocking forever on a full backlog against a
	// node that died or a transport that closed while we were waiting.
	select {
	case t.inbox[dst] <- wrapped:
	case <-t.killed[dst]:
		severAll(client, wrapped)
		return nil, &PeerDeadError{Node: dst}
	case <-t.killed[src]:
		severAll(client, wrapped)
		return nil, &PeerDeadError{Node: src}
	case <-t.done:
		severAll(client, wrapped)
		return nil, ErrTransportClosed
	}
	// The pipe itself watches the kill and close channels; a wrapper
	// may wait on something only its own Close ends.
	if wrapped != net.Conn(server) {
		t.register(dst, wrapped)
	}
	return client, nil
}

// register tracks a wrapped connection under its node, so Kill and
// Close reach the wrapper's own Close (faults.LatencyInjector's stall
// waits for it). The first registration carves every node's list, room
// for 2(n-1), from one slab. If the node died between placement and
// registration, the connection is severed immediately.
func (t *Mem) register(node int, c net.Conn) {
	t.mu.Lock()
	deadNow := t.dead[node] || t.closed
	if !deadNow {
		if t.conns == nil {
			per := 2 * (t.n - 1)
			slab := make([]net.Conn, t.n*per)
			t.conns = make([][]net.Conn, t.n)
			for i := range t.conns {
				t.conns[i] = slab[i*per : i*per : (i+1)*per]
			}
		}
		t.conns[node] = append(t.conns[node], c)
	}
	t.mu.Unlock()
	if deadNow {
		severAll(c)
	}
}

// Accept implements Transport.
func (t *Mem) Accept(node int) (net.Conn, error) {
	if node < 0 || node >= t.n {
		return nil, fmt.Errorf("exec: invalid node %d for %d nodes", node, t.n)
	}
	select {
	case c := <-t.inbox[node]:
		return c, nil
	case <-t.killed[node]:
		return nil, &PeerDeadError{Node: node}
	case <-t.done:
		return nil, ErrTransportClosed
	}
}

// Kill implements Transport: it marks the node dead, wakes its accept
// loop, and severs its open connections. Connection teardown happens
// outside the mutex (the lock-free-teardown convention from the
// directory layer).
func (t *Mem) Kill(node int) {
	if node < 0 || node >= t.n {
		return
	}
	t.mu.Lock()
	if t.dead[node] {
		t.mu.Unlock()
		return
	}
	t.dead[node] = true
	var doomed []net.Conn
	if t.conns != nil {
		doomed, t.conns[node] = t.conns[node], nil
	}
	t.mu.Unlock()
	close(t.killed[node])
	severAll(doomed...)
}

// severAll clears each connection's deadlines, which stops their
// timers now instead of after they fire, and closes it. Neither error
// carries information about a connection being deliberately destroyed,
// so they are the one result this package discards (cmp.Or evaluates
// both calls in order, without allocating).
func severAll(conns ...net.Conn) {
	for _, c := range conns {
		cmp.Or(c.SetDeadline(time.Time{}), c.Close())
	}
}

// Close implements Transport.
func (t *Mem) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	var doomed []net.Conn
	for _, conns := range t.conns {
		doomed = append(doomed, conns...)
	}
	t.conns = nil
	t.mu.Unlock()
	close(t.done)
	severAll(doomed...)
	return nil
}
