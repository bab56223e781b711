package directory

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"hetsched/internal/calib"
	"hetsched/internal/netmodel"
	"hetsched/internal/obs"
)

// Server exposes a Store over TCP with the JSON-line protocol. One
// goroutine per connection; connections are independent and may issue
// any number of requests.
type Server struct {
	store *Store

	mu          sync.Mutex
	listener    net.Listener
	conns       map[net.Conn]struct{}
	closed      bool
	draining    bool
	drainDl     time.Time
	wg          sync.WaitGroup
	idleTimeout time.Duration
	wrapConn    func(net.Conn) net.Conn
	clock       func() time.Time
	calibrator  *calib.Calibrator

	// resolved telemetry instruments; all nil when metrics are off.
	mConns   *obs.Counter
	mReqs    map[string]*obs.Counter // by op, plus "invalid"
	mVersion *obs.Gauge
}

// NewServer wraps a store.
func NewServer(store *Store) *Server {
	return &Server{store: store, conns: map[net.Conn]struct{}{}, clock: wallClock}
}

// SetClock injects the clock used to compute idle deadlines; nil
// restores the wall clock. Call before Listen.
func (s *Server) SetClock(clock func() time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if clock == nil {
		clock = wallClock
	}
	s.clock = clock
}

// SetIdleTimeout makes the server drop connections that stay silent
// longer than d, so dead clients cannot pin serving goroutines
// forever. Zero (the default) keeps connections open indefinitely.
// Call before Listen.
func (s *Server) SetIdleTimeout(d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.idleTimeout = d
}

// SetMetrics registers the server's instruments — accepted connections,
// handled requests by op, and the store's version gauge — in reg. Call
// before Listen; a nil registry leaves metrics disabled (every hook is
// then a nil-pointer no-op).
func (s *Server) SetMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mConns = reg.Counter(obs.MetricDirectoryServerConns,
		"Connections accepted by the directory server.")
	s.mReqs = map[string]*obs.Counter{}
	for _, op := range []string{opQuery, opSnapshot, countSnapshotUnchanged, opUpdatePair, opVersion, OpCalibrate, "invalid"} {
		s.mReqs[op] = reg.Counter(obs.MetricDirectoryServerRequests,
			"Requests handled by the directory server, by op; a snapshot answered not_modified counts as snapshot_unchanged, not snapshot.", obs.L("op", op))
	}
	s.mVersion = reg.Gauge(obs.MetricDirectoryStoreVersion,
		"Current version of the directory store.")
	s.mVersion.Set(float64(s.store.Version()))
}

// countSnapshotUnchanged is the request-counter label of a conditional
// snapshot answered not_modified. It is not a wire op: "snapshot" counts
// the requests that were answered with a table, this the ones that were
// not, so the two partition snapshot traffic and their ratio is the
// share of fetches the validator saved.
const countSnapshotUnchanged = "snapshot_unchanged"

// countRequest records one handled request; ops outside the protocol
// count as "invalid".
func (s *Server) countRequest(op string) {
	if s.mReqs == nil {
		return
	}
	c, ok := s.mReqs[op]
	if !ok {
		c = s.mReqs["invalid"]
	}
	c.Inc()
}

// SetCalibrator attaches a server-side calibrator: OpCalibrate
// requests carrying raw Samples are fed through it and whatever
// estimates clear its confidence gate are folded into the store, so
// thin clients can report measurements without running their own
// fitter. Without one, samples are counted as rejected (updates still
// apply). Call before Listen; nil detaches.
func (s *Server) SetCalibrator(cal *calib.Calibrator) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.calibrator = cal
}

// SetConnWrapper installs a hook applied to every accepted connection
// before serving begins — the seam the chaos harness uses to inject
// drops, stalls, and partial writes (see internal/faults). Call before
// Listen; the wrapper's Close must close the underlying connection.
func (s *Server) SetConnWrapper(wrap func(net.Conn) net.Conn) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.wrapConn = wrap
}

// Listen starts accepting connections on addr (e.g. "127.0.0.1:0")
// and returns the bound address. Serving happens on background
// goroutines; call Close to stop.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("directory: listen: %w", err)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		//hetvet:ignore errdiscard best-effort close of a listener that never served
		ln.Close()
		return "", errors.New("directory: server already closed")
	}
	s.listener = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return ln.Addr().String(), nil
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			//hetvet:ignore errdiscard best-effort close of a connection that raced shutdown
			conn.Close()
			return
		}
		if s.wrapConn != nil {
			conn = s.wrapConn(conn)
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.mConns.Inc()
		s.wg.Add(1)
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
	s.mu.Lock()
	idle := s.idleTimeout
	clock := s.clock
	s.mu.Unlock()
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	for {
		// During a drain the read deadline is the absolute drain
		// deadline: the connection keeps being served until then, but
		// no per-request idle grace may extend past it — that is what
		// guarantees Drain terminates.
		s.mu.Lock()
		draining, drainDl := s.draining, s.drainDl
		s.mu.Unlock()
		switch {
		case draining:
			if err := conn.SetReadDeadline(drainDl); err != nil {
				return // connection already torn down
			}
		case idle > 0:
			if err := conn.SetReadDeadline(clock().Add(idle)); err != nil {
				return // connection already torn down
			}
		}
		if !sc.Scan() {
			return // client hung up, idle deadline expired, or read error
		}
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var resp response
		if req, err := parseRequest(line); err != nil {
			resp = response{Error: err.Error()}
		} else if req.Op == OpCalibrate {
			// The calibration feed carries slice payloads the scalar
			// request union cannot hold, so the raw line is re-parsed
			// into its own frame type.
			resp = s.handleCalibrate(line)
		} else {
			resp = s.handle(req)
		}
		out, err := encodeResponse(resp)
		if err != nil {
			return
		}
		if _, err := conn.Write(out); err != nil {
			return
		}
	}
}

func (s *Server) handle(req request) response {
	resp := s.answer(req)
	if resp.NotModified {
		s.countRequest(countSnapshotUnchanged)
	} else {
		s.countRequest(req.Op)
	}
	return resp
}

func (s *Server) answer(req request) response {
	switch req.Op {
	case opQuery:
		pp, v, err := s.store.Query(req.Src, req.Dst)
		if err != nil {
			return response{Error: err.Error()}
		}
		s.mVersion.Set(float64(v))
		return response{OK: true, Version: v, Latency: pp.Latency, Bandwidth: pp.Bandwidth}
	case opSnapshot:
		perf, v := s.store.snapshotUnless(req.IfVersion)
		s.mVersion.Set(float64(v))
		if perf == nil {
			return response{OK: true, Version: v, NotModified: true}
		}
		return tableResponse(perf, s.store.Names(), v)
	case opUpdatePair:
		v, err := s.store.UpdatePair(req.Src, req.Dst, netmodel.PairPerf{Latency: req.Latency, Bandwidth: req.Bandwidth})
		if err != nil {
			return response{Error: err.Error()}
		}
		s.mVersion.Set(float64(v))
		return response{OK: true, Version: v}
	case opVersion:
		v := s.store.Version()
		s.mVersion.Set(float64(v))
		return response{OK: true, Version: v}
	default:
		return response{Error: fmt.Sprintf("unknown op %q", req.Op)}
	}
}

// tableResponse is the full snapshot reply: perf at version v in the
// wire's two-table form.
func tableResponse(perf *netmodel.Perf, names []string, v uint64) response {
	n := perf.N()
	lat := make([][]float64, n)
	bw := make([][]float64, n)
	for i := 0; i < n; i++ {
		lat[i] = make([]float64, n)
		bw[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			pp := perf.At(i, j)
			lat[i][j] = pp.Latency
			bw[i][j] = pp.Bandwidth
		}
	}
	return response{OK: true, Version: v, N: n, Names: names, LatTable: lat, BWTable: bw}
}

// handleCalibrate serves one OpCalibrate request. Applied counts table
// writes; Rejected counts request entries that did not make it into the
// table — updates that failed the bounds boundary, samples the attached
// calibrator's rejection gauntlet threw out, and samples received by a
// server with no calibrator to fit them.
func (s *Server) handleCalibrate(line []byte) response {
	s.countRequest(OpCalibrate)
	creq, err := ParseCalibRequest(line)
	if err != nil {
		return response{Error: err.Error()}
	}
	applied, rejected, v := s.store.ApplyCalibration(creq.Updates)
	s.mu.Lock()
	cal := s.calibrator
	s.mu.Unlock()
	switch {
	case cal != nil && len(creq.Samples) > 0:
		rep := cal.ObserveBatch(creq.Samples)
		rejected += rep.Rejected()
		a, r, v2 := s.store.ApplyCalibration(cal.Updates())
		applied += a
		rejected += r
		v = v2
	case len(creq.Samples) > 0:
		rejected += len(creq.Samples)
	}
	s.mVersion.Set(float64(v))
	return response{OK: true, Version: v, Applied: applied, Rejected: rejected}
}

// Drain shuts the server down gracefully: the listener closes
// immediately (no new connections), but connected clients keep being
// served until grace elapses, so a request in flight at signal time
// completes instead of dying mid-frame. Every live connection gets the
// absolute drain deadline as its read deadline — serving goroutines
// exit when their client hangs up or the deadline fires, whichever is
// first — and the serve loop never extends a deadline past it, so
// Drain returns within roughly grace. The final teardown is Close,
// whose bookkeeping makes Drain safe to combine with a later (or
// concurrent) Close call.
func (s *Server) Drain(grace time.Duration) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return s.Close()
	}
	s.draining = true
	s.drainDl = s.clock().Add(grace)
	dl := s.drainDl
	ln := s.listener
	s.listener = nil
	conns := make([]net.Conn, 0, len(s.conns))
	//hetvet:ignore determinism order-insensitive: every live connection gets the same deadline
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	for _, c := range conns {
		// Interrupt reads blocked from before the drain began; the
		// serve loop re-applies the same absolute deadline from here on.
		//hetvet:ignore errdiscard a torn-down connection is already on its way out
		c.SetReadDeadline(dl)
	}
	s.wg.Wait()
	if cerr := s.Close(); err == nil {
		err = cerr
	}
	return err
}

// Close stops the listener and all connections and waits for the
// serving goroutines to drain. It is safe to call more than once. The
// mutex only guards the bookkeeping: the closed flag flips and the
// live connections are snapshotted under s.mu, then every network
// teardown happens after unlocking so accept and serve goroutines are
// never queued behind it. The listener's close error is returned;
// per-connection close errors are expected noise (each serving
// goroutine's deferred close races this one).
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.closed = true
	ln := s.listener
	conns := make([]net.Conn, 0, len(s.conns))
	//hetvet:ignore determinism order-insensitive: every live connection is closed regardless of iteration order
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	for _, c := range conns {
		//hetvet:ignore errdiscard racing the serving goroutine's own deferred close; either error is noise
		c.Close()
	}
	s.wg.Wait()
	return err
}
