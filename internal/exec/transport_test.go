package exec

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hetsched/internal/faults"
)

// transports under test, by constructor.
func transportsUnderTest() map[string]func(n int) (Transport, error) {
	return map[string]func(n int) (Transport, error){
		"mem": func(n int) (Transport, error) { return NewMem(n) },
		"tcp": func(n int) (Transport, error) { return NewTCP(n) },
	}
}

func TestExecTransportRoundTrip(t *testing.T) {
	for _, name := range []string{"mem", "tcp"} {
		name := name
		t.Run(name, func(t *testing.T) {
			tr, err := transportsUnderTest()[name](3)
			if err != nil {
				t.Fatal(err)
			}
			defer tr.Close()
			if tr.N() != 3 {
				t.Fatalf("N=%d", tr.N())
			}
			done := make(chan error, 1)
			go func() {
				c, err := tr.Accept(1)
				if err != nil {
					done <- err
					return
				}
				defer c.Close()
				buf := make([]byte, 5)
				if _, err := c.Read(buf); err != nil {
					done <- err
					return
				}
				_, err = c.Write(buf)
				done <- err
			}()
			c, err := tr.Dial(0, 1)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if err := c.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
				t.Fatal(err)
			}
			if _, err := c.Write([]byte("hello")); err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, 5)
			if _, err := c.Read(buf); err != nil {
				t.Fatal(err)
			}
			if string(buf) != "hello" {
				t.Fatalf("echoed %q", buf)
			}
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestExecTransportKillSemantics(t *testing.T) {
	for _, name := range []string{"mem", "tcp"} {
		name := name
		t.Run(name, func(t *testing.T) {
			tr, err := transportsUnderTest()[name](3)
			if err != nil {
				t.Fatal(err)
			}
			defer tr.Close()
			acceptErr := make(chan error, 1)
			go func() {
				_, err := tr.Accept(1)
				acceptErr <- err
			}()
			tr.Kill(1)
			tr.Kill(1) // idempotent
			var pd *PeerDeadError
			if _, err := tr.Dial(0, 1); !errors.As(err, &pd) || pd.Node != 1 {
				t.Fatalf("dial to killed node: %v", err)
			}
			if _, err := tr.Dial(1, 0); !errors.As(err, &pd) || pd.Node != 1 {
				t.Fatalf("dial from killed node: %v", err)
			}
			select {
			case err := <-acceptErr:
				if !errors.Is(err, ErrPeerDead) {
					t.Fatalf("accept at killed node: %v", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("accept did not observe the kill")
			}
			// Other nodes keep working.
			go func() {
				c, err := tr.Accept(2)
				if err == nil {
					c.Close()
				}
			}()
			c, err := tr.Dial(0, 2)
			if err != nil {
				t.Fatalf("survivor dial failed: %v", err)
			}
			c.Close()
		})
	}
}

func TestExecTransportCloseSemantics(t *testing.T) {
	for _, name := range []string{"mem", "tcp"} {
		name := name
		t.Run(name, func(t *testing.T) {
			tr, err := transportsUnderTest()[name](2)
			if err != nil {
				t.Fatal(err)
			}
			acceptErr := make(chan error, 1)
			go func() {
				_, err := tr.Accept(0)
				acceptErr <- err
			}()
			if err := tr.Close(); err != nil {
				t.Fatal(err)
			}
			if err := tr.Close(); err != nil {
				t.Fatal("second close must be a no-op:", err)
			}
			if _, err := tr.Dial(0, 1); !errors.Is(err, ErrTransportClosed) {
				t.Fatalf("dial after close: %v", err)
			}
			select {
			case err := <-acceptErr:
				// Either classification is acceptable post-close for a
				// node that was never killed, but it must be terminal.
				if !errors.Is(err, ErrTransportClosed) && !errors.Is(err, ErrPeerDead) {
					t.Fatalf("accept after close: %v", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("accept did not observe the close")
			}
		})
	}
}

func TestExecTransportInvalidLinks(t *testing.T) {
	tr, err := NewMem(3)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	for _, pair := range [][2]int{{0, 0}, {-1, 1}, {0, 3}} {
		if _, err := tr.Dial(pair[0], pair[1]); err == nil {
			t.Fatalf("dial %v accepted", pair)
		}
	}
	if _, err := tr.Accept(9); err == nil {
		t.Fatal("accept at invalid node accepted")
	}
	if _, err := NewMem(-1); err == nil {
		t.Fatal("negative node count accepted")
	}
	if _, err := NewTCP(-1); err == nil {
		t.Fatal("negative node count accepted")
	}
}

func TestExecPeerDeadErrorIdentity(t *testing.T) {
	err := error(&PeerDeadError{Node: 3})
	if !errors.Is(err, ErrPeerDead) {
		t.Fatal("errors.Is failed")
	}
	var pd *PeerDeadError
	if !errors.As(err, &pd) || pd.Node != 3 {
		t.Fatal("errors.As failed")
	}
	if err.Error() == "" {
		t.Fatal("empty message")
	}
}

// probeTransport wraps both halves of every connection to watch the
// wire: how many transfers each node has open at once as a sender
// (dial to close) and as a receiver (accept to close), and whether the
// last deadline call before every Close cleared the deadline.
type probeTransport struct {
	Transport

	mu                 sync.Mutex
	sending, receiving []int // open now, per node
	maxSend, maxRecv   int
	opened, closed     int
	dirty              []string // closes not preceded by a zero deadline
}

func newProbe(tr Transport) *probeTransport {
	return &probeTransport{Transport: tr, sending: make([]int, tr.N()), receiving: make([]int, tr.N())}
}

func (p *probeTransport) Dial(src, dst int) (net.Conn, error) {
	c, err := p.Transport.Dial(src, dst)
	if err != nil {
		return nil, err
	}
	return p.open(c, p.sending, src, &p.maxSend, fmt.Sprintf("%d→%d dial half", src, dst)), nil
}

func (p *probeTransport) Accept(node int) (net.Conn, error) {
	c, err := p.Transport.Accept(node)
	if err != nil {
		return nil, err
	}
	return p.open(c, p.receiving, node, &p.maxRecv, fmt.Sprintf("P%d accept half", node)), nil
}

func (p *probeTransport) open(c net.Conn, count []int, node int, peak *int, name string) net.Conn {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.opened++
	count[node]++
	*peak = max(*peak, count[node])
	return &probeConn{Conn: c, p: p, count: count, node: node, name: name}
}

// checkPorts fails t unless some transfer was probed and no node ever
// had two transfers open on one side.
func (p *probeTransport) checkPorts(t *testing.T) {
	t.Helper()
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.maxSend != 1 || p.maxRecv != 1 {
		t.Errorf("most transfers open at one node: %d sending, %d receiving; the port model allows 1", p.maxSend, p.maxRecv)
	}
}

// checkDeadlines fails t unless every probed connection was closed,
// each after a deadline call that cleared the deadline.
func (p *probeTransport) checkDeadlines(t *testing.T) {
	t.Helper()
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.opened == 0 || p.closed != p.opened {
		t.Errorf("%d of %d probed connections closed", p.closed, p.opened)
	}
	for _, d := range p.dirty {
		t.Errorf("closed without clearing its deadline last: %s", d)
	}
}

type probeConn struct {
	net.Conn
	p     *probeTransport
	count []int
	node  int
	name  string

	mu     sync.Mutex
	calls  int       // deadline calls so far
	last   time.Time // argument of the latest one
	closed bool
}

func (c *probeConn) deadline(t time.Time) {
	c.mu.Lock()
	c.calls++
	c.last = t
	c.mu.Unlock()
}

func (c *probeConn) SetDeadline(t time.Time) error {
	c.deadline(t)
	return c.Conn.SetDeadline(t)
}

func (c *probeConn) SetReadDeadline(t time.Time) error {
	c.deadline(t)
	return c.Conn.SetReadDeadline(t)
}

func (c *probeConn) SetWriteDeadline(t time.Time) error {
	c.deadline(t)
	return c.Conn.SetWriteDeadline(t)
}

func (c *probeConn) Close() error {
	c.mu.Lock()
	first, clean := !c.closed, c.calls > 0 && c.last.IsZero()
	c.closed = true
	c.mu.Unlock()
	if first {
		c.p.mu.Lock()
		c.p.closed++
		c.count[c.node]--
		if !clean {
			c.p.dirty = append(c.p.dirty, c.name)
		}
		c.p.mu.Unlock()
	}
	return c.Conn.Close()
}

// probedRun performs one exchange over a probed transport and returns
// the probe.
func probedRun(t *testing.T, tr Transport, cfg Config) *probeTransport {
	t.Helper()
	res, m, sizes := testProblem(t, tr.N())
	probe := newProbe(tr)
	ex, err := New(probe, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ex.Run(context.Background(), res, m, sizes); err != nil {
		t.Fatal(err)
	}
	return probe
}

// TestExecPortsServeOneTransferAtATime checks the paper's port model
// on the wire rather than by construction: in a healthy exchange no
// node ever has two transfers open as a sender, or two as a receiver.
// chaosTrial checks the same under kills.
func TestExecPortsServeOneTransferAtATime(t *testing.T) {
	for name, newTransport := range transportsUnderTest() {
		t.Run(name, func(t *testing.T) {
			tr, err := newTransport(5)
			if err != nil {
				t.Fatal(err)
			}
			probedRun(t, tr, fastCfg()).checkPorts(t)
		})
	}
}

// TestExecDeadlinesClearedBeforeClose: on both halves of every
// connection the last deadline call before Close clears the deadline,
// so its timers stop with the attempt instead of firing later — on a
// clean exchange, and on the corrupt, duplicate and timeout paths.
func TestExecDeadlinesClearedBeforeClose(t *testing.T) {
	for name, newTransport := range transportsUnderTest() {
		t.Run(name, func(t *testing.T) {
			tr, err := newTransport(5)
			if err != nil {
				t.Fatal(err)
			}
			probedRun(t, tr, fastCfg()).checkDeadlines(t)
		})
	}
	t.Run("corrupt and lost acks", func(t *testing.T) {
		mem, err := NewMem(5)
		if err != nil {
			t.Fatal(err)
		}
		k := &corruptor{src: 1, dst: 2, flipAt: func(s int64) int64 { return s / 2 }}
		var budget atomic.Int32
		budget.Store(3)
		mem.SetConnWrapper(k.wrap)
		mem.SetPairWrapper(func(s, d int, c net.Conn) net.Conn { return &ackDropConn{Conn: c, budget: &budget} })
		probedRun(t, mem, fastCfg()).checkDeadlines(t)
		if got := k.answered(); len(got) != 1 || got[0] != ackCorrupt {
			t.Fatalf("corrupted attempt was answered %v, want [%v]", got, ackCorrupt)
		}
	})
	t.Run("stalled receiver", func(t *testing.T) {
		mem, err := NewMem(4)
		if err != nil {
			t.Fatal(err)
		}
		mem.SetConnWrapper(faults.NewLatencyInjector(faults.LatencyConfig{Seed: 3, StallProb: 1}).Wrap)
		probedRun(t, mem, Config{MinDeadline: 20 * time.Millisecond, MaxRetries: 1, Backoff: time.Millisecond}).checkDeadlines(t)
	})
}
