package exec

import (
	"fmt"
	"net"
	"sync"
)

// TCP is the socket transport: every node owns a real loopback
// listener, and Dial opens a fresh TCP connection per transfer
// attempt. It exists so the executor's framing, deadlines, and retry
// ladder are exercised against a kernel network stack, not just
// in-process pipes; hcsim -execute -transport tcp runs a whole
// exchange over it. An optional connection wrapper is applied to the
// accept-side half of every connection — the same chaos seam as
// directory.Server.SetConnWrapper.
type TCP struct {
	n    int
	ls   []net.Listener
	addr []string

	mu     sync.Mutex // guards dead, conns, closed, wrap — never held across I/O
	wrap   func(net.Conn) net.Conn
	dead   []bool
	conns  [][]net.Conn
	closed bool
}

// NewTCP creates a loopback TCP transport for n nodes, binding one
// ephemeral listener per node.
//
//hetvet:ignore tracectx construction-time listeners outlive any request; no trace exists yet
func NewTCP(n int) (*TCP, error) {
	if n < 0 {
		return nil, fmt.Errorf("exec: negative node count %d", n)
	}
	t := &TCP{
		n:     n,
		ls:    make([]net.Listener, n),
		addr:  make([]string, n),
		dead:  make([]bool, n),
		conns: make([][]net.Conn, n),
	}
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			closeListeners(t.ls[:i])
			return nil, fmt.Errorf("exec: listen for node %d: %w", i, err)
		}
		t.ls[i] = l
		t.addr[i] = l.Addr().String()
	}
	return t, nil
}

// closeListeners tears down already-bound listeners after a partial
// construction failure.
func closeListeners(ls []net.Listener) {
	for _, l := range ls {
		if l == nil {
			continue
		}
		l.Close()
	}
}

// SetConnWrapper installs a wrapper applied to the accept-side half of
// every future connection — the fault-injection seam. Call before the
// executor starts; nil restores the identity wrapper.
func (t *TCP) SetConnWrapper(wrap func(net.Conn) net.Conn) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.wrap = wrap
}

// N implements Transport.
func (t *TCP) N() int { return t.n }

// Addr returns the listen address of one node, for out-of-process
// peers and diagnostics.
func (t *TCP) Addr(node int) string { return t.addr[node] }

// Dial implements Transport.
//
//hetvet:ignore tracectx the Transport interface is trace-neutral; per-transfer spans live in the run, which owns the ctx
func (t *TCP) Dial(src, dst int) (net.Conn, error) {
	if src < 0 || src >= t.n || dst < 0 || dst >= t.n || src == dst {
		return nil, fmt.Errorf("exec: invalid link %d→%d for %d nodes", src, dst, t.n)
	}
	t.mu.Lock()
	closed, srcDead, dstDead := t.closed, t.dead[src], t.dead[dst]
	t.mu.Unlock()
	switch {
	case closed:
		return nil, ErrTransportClosed
	case srcDead:
		return nil, &PeerDeadError{Node: src}
	case dstDead:
		// The listener is already down; fail fast with the
		// classification a refused dial would eventually earn.
		return nil, &PeerDeadError{Node: dst}
	}
	c, err := net.Dial("tcp", t.addr[dst])
	if err != nil {
		return nil, fmt.Errorf("exec: dial %d→%d: %w", src, dst, err)
	}
	t.track(src, c)
	return c, nil
}

// Accept implements Transport.
func (t *TCP) Accept(node int) (net.Conn, error) {
	if node < 0 || node >= t.n {
		return nil, fmt.Errorf("exec: invalid node %d for %d nodes", node, t.n)
	}
	c, err := t.ls[node].Accept()
	if err != nil {
		t.mu.Lock()
		closed, dead := t.closed, t.dead[node]
		t.mu.Unlock()
		switch {
		case dead:
			return nil, &PeerDeadError{Node: node}
		case closed:
			return nil, ErrTransportClosed
		}
		return nil, fmt.Errorf("exec: accept at node %d: %w", node, err)
	}
	t.mu.Lock()
	wrap := t.wrap
	t.mu.Unlock()
	if wrap != nil {
		c = wrap(c)
	}
	t.track(node, c)
	return c, nil
}

// track registers a connection under its node for kill/close teardown,
// severing it immediately when the node died mid-handshake.
func (t *TCP) track(node int, c net.Conn) {
	t.mu.Lock()
	deadNow := t.dead[node] || t.closed
	if !deadNow {
		t.conns[node] = append(t.conns[node], c)
	}
	t.mu.Unlock()
	if deadNow {
		severAll(c)
	}
}

// Kill implements Transport: the node's listener goes down and its
// open connections are severed, so in-flight transfers fail and later
// dials are refused. Teardown happens outside the mutex.
func (t *TCP) Kill(node int) {
	if node < 0 || node >= t.n {
		return
	}
	t.mu.Lock()
	if t.dead[node] {
		t.mu.Unlock()
		return
	}
	t.dead[node] = true
	doomed := t.conns[node]
	t.conns[node] = nil
	t.mu.Unlock()
	t.ls[node].Close()
	severAll(doomed...)
}

// Close implements Transport.
func (t *TCP) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	var doomed []net.Conn
	for node := 0; node < t.n; node++ {
		doomed = append(doomed, t.conns[node]...)
		t.conns[node] = nil
	}
	dead := append([]bool(nil), t.dead...)
	t.mu.Unlock()
	for node, l := range t.ls {
		if dead[node] {
			continue // Kill already closed it
		}
		l.Close()
	}
	severAll(doomed...)
	return nil
}
