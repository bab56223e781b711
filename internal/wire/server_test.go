package wire

import (
	"bufio"
	"bytes"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"hetsched/internal/leakcheck"
)

// echo answers every line with itself; "bye" hangs up without a word.
func echo(dst, line []byte) ([]byte, bool) {
	if string(line) == "bye" {
		return nil, false
	}
	return append(append(dst, line...), '\n'), true
}

func startEcho(t *testing.T, s *Server) string {
	t.Helper()
	if s.Handler == nil {
		s.Handler = echo
	}
	if s.Clock == nil {
		s.Clock = time.Now
	}
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return addr
}

// peer is a raw test client: write lines, read lines, with a bound.
type peer struct {
	t    *testing.T
	conn net.Conn
	rd   *bufio.Reader
}

func dialPeer(t *testing.T, addr string) *peer {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &peer{t: t, conn: conn, rd: bufio.NewReader(conn)}
}

func (p *peer) send(s string) {
	p.t.Helper()
	if _, err := p.conn.Write([]byte(s)); err != nil {
		p.t.Fatalf("write %q: %v", s, err)
	}
}

// line reads one response line, or reports the read error (io.EOF once
// the server hung up).
func (p *peer) line() (string, error) {
	if err := p.conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		return "", err
	}
	s, err := p.rd.ReadString('\n')
	return s, err
}

func (p *peer) expect(want string) {
	p.t.Helper()
	if got, err := p.line(); err != nil || got != want {
		p.t.Fatalf("read %q, %v; want %q", got, err, want)
	}
}

func (p *peer) expectHangup() {
	p.t.Helper()
	if got, err := p.line(); err == nil {
		p.t.Fatalf("read %q from a connection the server should have closed", got)
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		p.t.Fatal("server kept the connection open")
	}
}

// deadlineConn records every deadline the server sets on it.
type deadlineConn struct {
	net.Conn
	mu          sync.Mutex
	read, write []time.Time
}

func (c *deadlineConn) SetReadDeadline(t time.Time) error {
	c.mu.Lock()
	c.read = append(c.read, t)
	c.mu.Unlock()
	return c.Conn.SetReadDeadline(t)
}

func (c *deadlineConn) SetWriteDeadline(t time.Time) error {
	c.mu.Lock()
	c.write = append(c.write, t)
	c.mu.Unlock()
	return c.Conn.SetWriteDeadline(t)
}

func (c *deadlineConn) SetDeadline(t time.Time) error {
	c.mu.Lock()
	c.read = append(c.read, t)
	c.write = append(c.write, t)
	c.mu.Unlock()
	return c.Conn.SetDeadline(t)
}

func (c *deadlineConn) deadlines() (read, write []time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]time.Time(nil), c.read...), append([]time.Time(nil), c.write...)
}

// errDeadline is the fault a deadlineFault injects.
var errDeadline = errors.New("injected deadline fault")

// deadlineFault refuses the deadlines of the directions it names, as a
// connection already torn down underneath its owner does.
type deadlineFault struct {
	net.Conn
	read, write bool
}

func (c *deadlineFault) SetReadDeadline(t time.Time) error {
	if c.read {
		return errDeadline
	}
	return c.Conn.SetReadDeadline(t)
}

func (c *deadlineFault) SetWriteDeadline(t time.Time) error {
	if c.write {
		return errDeadline
	}
	return c.Conn.SetWriteDeadline(t)
}

func (c *deadlineFault) SetDeadline(t time.Time) error {
	if c.read || c.write {
		return errDeadline
	}
	return c.Conn.SetDeadline(t)
}

// recordDeadlines installs a wrapper that hands every accepted
// connection to the returned channel as a deadlineConn.
func recordDeadlines(s *Server) <-chan *deadlineConn {
	ch := make(chan *deadlineConn, 8) // one slot per connection a test opens
	s.WrapConn = func(c net.Conn) net.Conn {
		dc := &deadlineConn{Conn: c}
		ch <- dc
		return dc
	}
	return ch
}

// TestDeadlinesComeFromTheClock: both per-request deadlines are the
// injected clock's now plus the configured timeout, re-armed on every
// request; a zero timeout sets none at all.
func TestDeadlinesComeFromTheClock(t *testing.T) {
	far := time.Now().Add(24 * time.Hour) // a fake now the kernel will not fire on
	s := &Server{IdleTimeout: time.Minute, WriteTimeout: time.Second, Clock: func() time.Time { return far }}
	conns := recordDeadlines(s)
	p := dialPeer(t, startEcho(t, s))
	p.send("a\n")
	p.expect("a\n")
	p.send("b\n")
	p.expect("b\n")
	read, write := (<-conns).deadlines()
	if len(read) < 2 || len(write) != 2 {
		t.Fatalf("deadlines set: read %v, write %v; want one of each per request", read, write)
	}
	for _, d := range read {
		if !d.Equal(far.Add(time.Minute)) {
			t.Errorf("read deadline %v, want clock + IdleTimeout = %v", d, far.Add(time.Minute))
		}
	}
	for _, d := range write {
		if !d.Equal(far.Add(time.Second)) {
			t.Errorf("write deadline %v, want clock + WriteTimeout = %v", d, far.Add(time.Second))
		}
	}

	none := &Server{Clock: func() time.Time { return far }}
	conns = recordDeadlines(none)
	p = dialPeer(t, startEcho(t, none))
	p.send("a\n")
	p.expect("a\n")
	if read, write := (<-conns).deadlines(); len(read)+len(write) != 0 {
		t.Errorf("zero timeouts set deadlines: read %v, write %v", read, write)
	}
}

// TestDrainDeadlineComesFromTheClock: the drain deadline is the
// injected clock's now plus grace. The clock here stands an hour in the
// past, so that deadline has already fired and an idle peer is released
// at once.
func TestDrainDeadlineComesFromTheClock(t *testing.T) {
	past := time.Now().Add(-time.Hour)
	s := &Server{Clock: func() time.Time { return past }}
	conns := recordDeadlines(s)
	p := dialPeer(t, startEcho(t, s))
	p.send("a\n")
	p.expect("a\n")
	if err := s.Drain(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	want := past.Add(2 * time.Second)
	read, write := (<-conns).deadlines()
	if len(read) == 0 || len(write) == 0 || !read[len(read)-1].Equal(want) || !write[len(write)-1].Equal(want) {
		t.Errorf("deadlines after the drain: read %v, write %v; want both to end at clock + grace = %v", read, write, want)
	}
	p.expectHangup()
}

// TestDeadlineFaultHangsUp: a connection that refuses its idle or its
// write deadline is closed, not served without one, so no goroutine can
// park on it past what the server promised.
func TestDeadlineFaultHangsUp(t *testing.T) {
	for _, fault := range []deadlineFault{{read: true}, {write: true}} {
		s := &Server{IdleTimeout: time.Minute, WriteTimeout: time.Minute}
		s.WrapConn = func(c net.Conn) net.Conn { return &deadlineFault{Conn: c, read: fault.read, write: fault.write} }
		p := dialPeer(t, startEcho(t, s))
		p.send("a\n")
		p.expectHangup()
	}
}

// failingListener is a listener whose Close reports an error after
// closing the socket underneath.
type failingListener struct{ net.Listener }

var errListenerClose = errors.New("injected listener close fault")

func (l failingListener) Close() error {
	l.Listener.Close()
	return errListenerClose
}

// TestCloseReturnsTheListenersError: Close and Drain report a listener
// that failed to close instead of swallowing it.
func TestCloseReturnsTheListenersError(t *testing.T) {
	for _, shut := range []func(*Server) error{
		(*Server).Close,
		func(s *Server) error { return s.Drain(time.Second) },
	} {
		s := &Server{Handler: echo, Clock: time.Now}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		s.listener, s.conns = failingListener{ln}, map[net.Conn]struct{}{}
		s.wg.Add(1)
		go s.acceptLoop(s.listener)
		if err := shut(s); !errors.Is(err, errListenerClose) {
			t.Errorf("shutdown = %v, want the listener's close error", err)
		}
	}
}

// TestIdleTimeoutDropsSilentConnection: a connection that says nothing
// for IdleTimeout is closed; an active one is not, and with 0 a silent
// one stays.
func TestIdleTimeoutDropsSilentConnection(t *testing.T) {
	p := dialPeer(t, startEcho(t, &Server{IdleTimeout: 50 * time.Millisecond}))
	p.send("a\n")
	p.expect("a\n")
	p.expectHangup()

	p = dialPeer(t, startEcho(t, &Server{}))
	time.Sleep(150 * time.Millisecond)
	p.send("still here\n")
	p.expect("still here\n")
}

// TestOversizedLineClosesOnlyThatConnection: a request line over the
// 4 MiB bound ends its connection; a neighbour on the same server is
// untouched.
func TestOversizedLineClosesOnlyThatConnection(t *testing.T) {
	addr := startEcho(t, &Server{})
	hostile, neighbour := dialPeer(t, addr), dialPeer(t, addr)
	neighbour.send("a\n")
	neighbour.expect("a\n")
	go hostile.conn.Write(bytes.Repeat([]byte{'x'}, maxLine+1)) // the server hangs up mid-write
	hostile.expectHangup()
	neighbour.send("b\n")
	neighbour.expect("b\n")
}

// TestBlankLinesSkippedAndHandlerHangup: blank lines get no response
// and do not reach the handler; ok=false closes the connection with
// nothing written. Every line is answered into the connection's one
// response buffer, handed over empty.
func TestBlankLinesSkippedAndHandlerHangup(t *testing.T) {
	var mu sync.Mutex
	var seen []string
	var bufs []*byte
	s := &Server{Handler: func(dst, line []byte) ([]byte, bool) {
		mu.Lock()
		seen = append(seen, string(line))
		if len(dst) != 0 {
			t.Errorf("line %q: handed %d bytes already written", line, len(dst))
		}
		if cap(dst) > 0 {
			bufs = append(bufs, &dst[:1][0])
		}
		mu.Unlock()
		return echo(dst, line)
	}}
	p := dialPeer(t, startEcho(t, s))
	p.send("\n\na\n\nb\n")
	p.expect("a\n")
	p.expect("b\n")
	p.send("bye\n")
	if got, err := p.line(); err == nil || got != "" {
		t.Fatalf("read %q, %v after the handler declined; want a bare hangup", got, err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != 3 || seen[0] != "a" || seen[1] != "b" || seen[2] != "bye" {
		t.Errorf("handler saw %q, want a, b, bye", seen)
	}
	if len(bufs) != 2 || bufs[0] != bufs[1] {
		t.Errorf("after the first answer the handler was handed %d buffers %v, want one, twice", len(bufs), bufs)
	}
}

// TestLongAnswerBufferNotKept: after an answer longer than
// keptResponse the connection drops its response buffer, so the next
// line is answered into a fresh one; a short answer's buffer is kept.
func TestLongAnswerBufferNotKept(t *testing.T) {
	long := strings.Repeat("x", keptResponse)
	var mu sync.Mutex
	var caps []int
	s := &Server{Handler: func(dst, line []byte) ([]byte, bool) {
		mu.Lock()
		caps = append(caps, cap(dst))
		mu.Unlock()
		if string(line) == "long" {
			return append(append(dst, long...), '\n'), true
		}
		return echo(dst, line)
	}}
	p := dialPeer(t, startEcho(t, s))
	p.send("a\nb\nlong\nc\n")
	p.expect("a\n")
	p.expect("b\n")
	p.expect(long + "\n")
	p.expect("c\n")
	mu.Lock()
	defer mu.Unlock()
	if len(caps) != 4 || caps[0] != 0 || caps[1] == 0 || caps[2] != caps[1] || caps[3] != 0 {
		t.Errorf("handed buffers of capacity %v, want 0, then one short buffer twice, then 0 after the long answer", caps)
	}
}

// TestWrapperAndAcceptHookSeeEachConnectionOnce: the wrapper seam and
// the on-accept hook both fire exactly once per accepted connection.
func TestWrapperAndAcceptHookSeeEachConnectionOnce(t *testing.T) {
	var mu sync.Mutex
	wrapped := map[net.Conn]int{}
	accepts := 0
	s := &Server{
		WrapConn: func(c net.Conn) net.Conn {
			mu.Lock()
			wrapped[c]++
			mu.Unlock()
			return c
		},
		OnAccept: func() { mu.Lock(); accepts++; mu.Unlock() },
	}
	addr := startEcho(t, s)
	for i := 0; i < 3; i++ {
		p := dialPeer(t, addr)
		p.send("a\n")
		p.expect("a\n")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(wrapped) != 3 || accepts != 3 {
		t.Fatalf("wrapper saw %d connections, hook %d; want 3 and 3", len(wrapped), accepts)
	}
	for c, n := range wrapped {
		if n != 1 {
			t.Errorf("connection %v wrapped %d times", c.RemoteAddr(), n)
		}
	}
}

// TestListenRefusedOnceShutDown: after Close, and from the moment a
// drain begins, Listen is refused — and the listener it had bound is
// closed again, so the address is free.
func TestListenRefusedOnceShutDown(t *testing.T) {
	free := func() string {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		return ln.Addr().String()
	}
	refused := func(s *Server) {
		t.Helper()
		addr := free()
		if _, err := s.Listen(addr); err != ErrShutDown {
			t.Fatalf("Listen = %v, want ErrShutDown", err)
		}
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			t.Fatalf("the refused listener still holds %s: %v", addr, err)
		}
		ln.Close()
	}

	closed := &Server{}
	startEcho(t, closed)
	if err := closed.Close(); err != nil {
		t.Fatal(err)
	}
	if closed.Addr() != "" {
		t.Error("closed server still reports an address")
	}
	refused(closed)

	draining := &Server{}
	p := dialPeer(t, startEcho(t, draining))
	p.send("a\n")
	p.expect("a\n")
	done := make(chan error, 1)
	go func() { done <- draining.Drain(300 * time.Millisecond) }()
	for draining.drainAt.Load() == nil {
		time.Sleep(time.Millisecond)
	}
	refused(draining)
	p.send("b\n") // the connected peer is still served inside the grace window
	p.expect("b\n")
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	p.expectHangup()
}

// TestCloseIdempotentAndConcurrent: Close twice, Close racing Drain,
// and Close racing Listen all return with every goroutine joined.
func TestCloseIdempotentAndConcurrent(t *testing.T) {
	race := func(fs ...func()) {
		var wg sync.WaitGroup
		for _, f := range fs {
			wg.Add(1)
			go func(f func()) { defer wg.Done(); f() }(f)
		}
		wg.Wait()
	}
	leakcheck.Check(t, func() {
		for i := 0; i < 20; i++ {
			s := &Server{Handler: echo, Clock: time.Now}
			addr, err := s.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			p := dialPeer(t, addr)
			p.send("a\n")
			p.expect("a\n")
			race(func() { s.Close() }, func() { s.Close() }, func() { s.Drain(50 * time.Millisecond) })
			if err := s.Close(); err != nil {
				t.Fatalf("close after shutdown: %v", err)
			}
			if err := s.Drain(time.Millisecond); err != nil {
				t.Fatalf("drain after close: %v", err)
			}
			p.expectHangup()
			p.conn.Close()

			// Listen either loses (refused) or wins and is torn down.
			s = &Server{Handler: echo, Clock: time.Now}
			race(func() { s.Listen("127.0.0.1:0") }, func() { s.Close() })
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if s.Addr() != "" {
				t.Fatal("a listener survived Close")
			}
		}
	})
}

// TestConnectionRacingShutdownIsClosed: a connection accepted while
// Close is under way is closed, not served and not leaked. The wrapper
// seam runs between Accept and registration, so it can hold the
// connection there until the server is closed.
func TestConnectionRacingShutdownIsClosed(t *testing.T) {
	leakcheck.Check(t, func() {
		s := &Server{Handler: echo, Clock: time.Now}
		closed := make(chan error, 1)
		s.WrapConn = func(c net.Conn) net.Conn {
			go func() { closed <- s.Close() }()
			for !s.closed.Load() {
				time.Sleep(time.Millisecond)
			}
			return c
		}
		addr, err := s.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		p := dialPeer(t, addr)
		p.send("a\n")
		p.expectHangup()
		if err := <-closed; err != nil {
			t.Fatal(err)
		}
		p.conn.Close()
	})
}

// TestDrainNeverSetsADeadlinePastItsOwn: from the moment the drain
// deadline exists, no deadline in either direction is set later than
// it, however generous the per-request timeouts are — and a peer that
// keeps talking cannot keep the drain from finishing on time.
func TestDrainNeverSetsADeadlinePastItsOwn(t *testing.T) {
	s := &Server{IdleTimeout: time.Hour, WriteTimeout: time.Hour}
	conns := recordDeadlines(s)
	p := dialPeer(t, startEcho(t, s))
	p.send("a\n")
	p.expect("a\n")
	dc := <-conns
	beforeR, beforeW := dc.deadlines()
	for len(beforeR) < 2 { // wait out the re-arm that follows the response
		time.Sleep(time.Millisecond)
		beforeR, beforeW = dc.deadlines()
	}

	start := time.Now()
	done := make(chan error, 1)
	go func() { done <- s.Drain(200 * time.Millisecond) }()
	for s.drainAt.Load() == nil { // chatter sent earlier would be pre-drain traffic
		time.Sleep(time.Millisecond)
	}
	for time.Since(start) < time.Second {
		if _, err := p.conn.Write([]byte("chatter\n")); err != nil {
			break
		}
		if _, err := p.line(); err != nil {
			break
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > time.Second {
		t.Errorf("Drain(200ms) took %v behind a chatty peer", took)
	}
	drain := *s.drainAt.Load()
	read, write := dc.deadlines()
	if len(read) == len(beforeR) || len(write) == len(beforeW) {
		t.Fatal("the drain set no deadline on the live connection")
	}
	for _, d := range append(read[len(beforeR):], write[len(beforeW):]...) {
		if d.After(drain) {
			t.Errorf("deadline %v set during the drain is past the drain deadline %v", d, drain)
		}
	}
}
