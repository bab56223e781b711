package wire

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// ErrShutDown is returned by Listen once Drain or Close has begun.
var ErrShutDown = errors.New("wire: server is shut down")

// Server is the line-server lifecycle (DESIGN.md §3, "The wire core"):
// one goroutine per connection, one request line in, one response line
// out. It is serving, then draining (listener closed, connected peers
// still answered, every deadline capped at one absolute instant), then
// closed (connections severed, goroutines joined) — never backwards.
// The exported fields configure it and must be set before Listen.
type Server struct {
	// Handler answers one non-blank request line, valid only until it
	// returns, with one response line, newline included, appended to
	// dst: the connection's response buffer, empty, which the server
	// writes and then reuses for the next line (unless it grew past
	// keptResponse), so the handler must keep no reference to it.
	// ok=false closes the connection with nothing written.
	Handler func(dst, line []byte) (resp []byte, ok bool)
	// IdleTimeout drops a connection silent for this long; WriteTimeout
	// severs one whose client stopped reading. 0 means none.
	IdleTimeout, WriteTimeout time.Duration
	Clock                     func() time.Time // source of deadlines
	// WrapConn, when set, wraps each accepted connection before it is
	// served (the fault-injection seam); its Close must close the
	// underlying connection. OnAccept, when set, is then called.
	WrapConn func(net.Conn) net.Conn
	OnAccept func()

	mu       sync.Mutex // guards listener and conns
	listener net.Listener
	conns    map[net.Conn]struct{}
	wg       sync.WaitGroup
	closed   atomic.Bool
	drainAt  atomic.Pointer[time.Time] // absolute drain deadline; nil until Drain
}

// keptResponse is the largest response buffer a connection keeps
// between lines: the scanner's initial size. A longer answer (a full
// directory snapshot at large P can approach maxLine) is written from a
// buffer that is then dropped.
const keptResponse = 1 << 16

// Listen starts accepting on addr in the background and returns the
// bound address.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	if s.closed.Load() || s.drainAt.Load() != nil {
		s.mu.Unlock()
		ln.Close()
		return "", ErrShutDown
	}
	if s.conns == nil {
		s.conns = make(map[net.Conn]struct{})
	}
	s.listener = ln
	s.wg.Add(1)
	s.mu.Unlock()
	go s.acceptLoop(ln)
	return ln.Addr().String(), nil
}

// Addr returns the bound listen address, or "" when not listening.
func (s *Server) Addr() string {
	s.mu.Lock()
	ln := s.listener
	s.mu.Unlock()
	if ln == nil {
		return ""
	}
	return ln.Addr().String()
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed by Drain or Close
		}
		if s.WrapConn != nil {
			conn = s.WrapConn(conn)
		}
		s.mu.Lock()
		if s.closed.Load() {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		if s.OnAccept != nil {
			s.OnAccept()
		}
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	sc := newScanner(conn)
	var out []byte // the response buffer, reused up to keptResponse
	for {
		if s.arm(conn.SetReadDeadline, s.IdleTimeout) != nil || !sc.Scan() {
			return // hung up, deadline expired, line too long, or torn down
		}
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var ok bool
		out, ok = s.Handler(out[:0], line)
		if !ok || s.arm(conn.SetWriteDeadline, s.WriteTimeout) != nil {
			return
		}
		if _, err := conn.Write(out); err != nil {
			return // slow or dead client; the server is not its hostage
		}
		if cap(out) > keptResponse {
			out = nil // a rare long answer is not held for the connection's life
		}
	}
}

// arm sets one direction's deadline to timeout from now (0: none),
// capped at drainAt: none is left standing past it, which is what makes
// Drain terminate. A drain that begins between the load and the set is
// caught by the reload; a later one stores drainAt and then sweeps
// every connection, so its deadline lands on top of this one.
func (s *Server) arm(set func(time.Time) error, timeout time.Duration) error {
	var t time.Time
	if timeout > 0 {
		t = s.Clock().Add(timeout)
	}
	for {
		drain := s.drainAt.Load()
		if drain != nil && (t.IsZero() || t.After(*drain)) {
			t = *drain
		}
		// Still zero: this direction never had a deadline to clear.
		if !t.IsZero() {
			if err := set(t); err != nil {
				return err
			}
		}
		if s.drainAt.Load() == drain {
			return nil
		}
	}
}

// Drain shuts down gracefully, in two phases. The listener closes and
// every live connection gets the drain deadline in both directions:
// clients keep being served until grace elapses, so a request in flight
// completes instead of dying mid-frame, while a goroutine parked in a
// read, or in a write to a client that stopped reading, is released
// when it fires. Once all have exited, Close tears down the rest. Drain
// returns within roughly grace; it is safe alongside or after Close.
func (s *Server) Drain(grace time.Duration) error {
	t := s.Clock().Add(grace)
	s.drainAt.CompareAndSwap(nil, &t) // a second Drain keeps the first deadline
	drain := *s.drainAt.Load()
	err := s.stop(func(c net.Conn) error { return c.SetDeadline(drain) })
	return errors.Join(err, s.Close())
}

// Close stops the server at once: listener closed, connections severed,
// goroutines joined. Idempotent; safe concurrently with Listen and Drain.
func (s *Server) Close() error {
	s.closed.Store(true)
	return s.stop(net.Conn.Close)
}

// stop closes the listener, applies end to every live connection and
// joins the goroutines. The caller has already stored closed or
// drainAt, so a connection that misses the snapshot sees that state.
// Teardown happens after unlocking, so accept and serve goroutines never
// queue behind it. Per-connection errors are noise: the connection is
// on its way out, or its goroutine's deferred close raced this one.
func (s *Server) stop(end func(net.Conn) error) error {
	s.mu.Lock()
	ln := s.listener
	s.listener = nil
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	for _, c := range conns {
		end(c)
	}
	s.wg.Wait()
	return err
}
