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
)

// Sentinel errors for the client's failure model. ErrUnavailable wraps
// every transport-level failure (dial, write, read, timeout, server
// hangup) so callers can distinguish "the server could not be reached"
// from a server-reported error such as an out-of-range pair; the
// former is retriable, the latter is not.
var (
	// ErrBroken is returned by every call after a transport failure
	// left the connection in an undefined framing state, until
	// Reconnect succeeds.
	ErrBroken = errors.New("directory: client connection broken")
	// ErrUnavailable marks transport-level failures; test with
	// errors.Is to decide whether retrying can help.
	ErrUnavailable = errors.New("directory: server unavailable")
)

// wallClock is this package's single sanctioned wall-clock source.
// Every deadline — client round trips, server idle timeouts, resilient
// retry pacing — flows through an injectable clock defaulting to it,
// so tests and chaos runs can substitute a fake clock.
//
//hetvet:ignore determinism the package's one wall-clock default; every other site injects
var wallClock = time.Now

// Client talks to a directory server over TCP. It is safe for
// concurrent use; requests on one client are serialized over one
// connection (the protocol is strictly request/response).
//
// After any transport error the JSON-line framing of the connection is
// undefined — part of a request may have been written, or part of a
// response left unread — so the client marks itself broken and every
// later call fails fast with ErrBroken until Reconnect establishes a
// fresh connection.
type Client struct {
	addr        string
	dialTimeout time.Duration

	mu         sync.Mutex
	conn       net.Conn
	rd         *bufio.Scanner
	broken     bool
	reqTimeout time.Duration
	clock      func() time.Time
}

// Dial connects to a directory server. timeout bounds the connection
// attempt; zero means no timeout. The address and timeout are kept for
// later Reconnect calls.
func Dial(addr string, timeout time.Duration) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("%w: dial %s: %v", ErrUnavailable, addr, err)
	}
	c := &Client{addr: addr, dialTimeout: timeout, clock: wallClock}
	c.attach(conn)
	return c, nil
}

// attach installs a fresh connection. The caller must hold c.mu or own
// the client exclusively.
func (c *Client) attach(conn net.Conn) {
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	c.conn = conn
	c.rd = sc
	c.broken = false
}

// SetRequestTimeout bounds every subsequent round trip (write plus
// read) with a connection deadline. Zero restores unbounded requests.
func (c *Client) SetRequestTimeout(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reqTimeout = d
}

// SetClock injects the clock used to compute request deadlines; nil
// restores the wall clock. Note ResilientConfig.Clock is deliberately
// NOT propagated here: that clock is virtual time for cache ages,
// while deadlines must track the wall clock the kernel enforces.
func (c *Client) SetClock(clock func() time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if clock == nil {
		clock = wallClock
	}
	c.clock = clock
}

// Reconnect drops the current connection and dials a fresh one to the
// original address, clearing the broken state on success. The swap
// happens while holding c.mu on purpose: callers blocked in roundTrip
// must see either the old connection or the fully attached new one,
// never a half-installed state. Use ResilientClient when redial
// latency must not stall concurrent requests.
func (c *Client) Reconnect() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn != nil {
		//hetvet:ignore lockio,errdiscard atomic swap under the framing lock; the old connection's close error is meaningless
		c.conn.Close()
	}
	//hetvet:ignore lockio atomic swap under the framing lock (see doc comment)
	conn, err := net.DialTimeout("tcp", c.addr, c.dialTimeout)
	if err != nil {
		c.broken = true
		return fmt.Errorf("%w: redial %s: %v", ErrUnavailable, c.addr, err)
	}
	c.attach(conn)
	return nil
}

// Broken reports whether the client needs a Reconnect.
func (c *Client) Broken() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.broken
}

// Close shuts the connection; later calls return ErrBroken. The flag
// flips under c.mu but the close itself happens after unlocking, so a
// caller that grabs the lock next fails fast instead of queueing
// behind network teardown.
func (c *Client) Close() error {
	c.mu.Lock()
	c.broken = true
	conn := c.conn
	c.mu.Unlock()
	return conn.Close()
}

func (c *Client) roundTrip(req request) (response, error) {
	out, err := encodeRequest(req)
	if err != nil {
		// Nothing touched the wire; the connection is still clean.
		return response{}, fmt.Errorf("directory: send: %w", err)
	}
	return c.roundTripLine(out, req.IfVersion)
}

// roundTripLine sends one pre-encoded request line and reads one
// response line — the transport core shared by the scalar request
// union and the calibration frames, which carry slice payloads the
// union cannot hold. asked is the if_version the request carried (nil
// for none): the only version a not_modified reply may name.
func (c *Client) roundTripLine(out []byte, asked *uint64) (response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.broken {
		return response{}, fmt.Errorf("%w (call Reconnect to recover)", ErrBroken)
	}
	// The wire work below runs under c.mu on purpose: the JSON-line
	// protocol is strictly one request, one response, so the mutex IS
	// the per-connection framing lock. A second goroutine interleaving
	// writes here would corrupt the stream, not speed it up.
	var dl time.Time // zero clears the deadline
	if c.reqTimeout > 0 {
		dl = c.clock().Add(c.reqTimeout)
	}
	//hetvet:ignore lockio the mutex is the framing lock; see comment above
	if err := c.conn.SetDeadline(dl); err != nil {
		c.broken = true
		return response{}, fmt.Errorf("%w: set deadline: %v", ErrUnavailable, err)
	}
	//hetvet:ignore lockio the mutex is the framing lock; see comment above
	if _, err := c.conn.Write(out); err != nil {
		c.broken = true
		return response{}, fmt.Errorf("%w: send: %v", ErrUnavailable, err)
	}
	if !c.rd.Scan() {
		c.broken = true
		if err := c.rd.Err(); err != nil {
			return response{}, fmt.Errorf("%w: receive: %v", ErrUnavailable, err)
		}
		return response{}, fmt.Errorf("%w: connection closed by server", ErrUnavailable)
	}
	resp, err := parseResponse(c.rd.Bytes())
	if err != nil {
		// Garbage on the stream is indistinguishable from a connection
		// severed mid-frame (a torn write truncates the JSON line), so
		// treat it as a transport failure: framing can no longer be
		// trusted, and a reconnect plus retry is the right recovery.
		c.broken = true
		return response{}, fmt.Errorf("%w: %v", ErrUnavailable, err)
	}
	if resp.NotModified && (asked == nil || resp.Version != *asked) {
		// A well-formed line that answers a question this request did
		// not ask belongs to some other exchange: the stream is out of
		// step, which is the same fault as garbage on it.
		c.broken = true
		return response{}, fmt.Errorf("%w: unsolicited not_modified (version %d)", ErrUnavailable, resp.Version)
	}
	if !resp.OK {
		return response{}, fmt.Errorf("directory: server error: %s", resp.Error)
	}
	return resp, nil
}

// Query fetches the performance of one ordered pair.
func (c *Client) Query(src, dst int) (netmodel.PairPerf, uint64, error) {
	resp, err := c.roundTrip(request{Op: opQuery, Src: src, Dst: dst})
	if err != nil {
		return netmodel.PairPerf{}, 0, err
	}
	return netmodel.PairPerf{Latency: resp.Latency, Bandwidth: resp.Bandwidth}, resp.Version, nil
}

// Snapshot fetches the whole table, its processor names, and version.
func (c *Client) Snapshot() (*netmodel.Perf, []string, uint64, error) {
	return c.snapshotUnless(nil)
}

// snapshotUnless is Snapshot for a caller that already holds the table
// this connection delivered at version *have: when the server is still
// at that version the reply is a bare not_modified and the returned
// table is nil. The caller must not pass a version learned on any other
// connection (see the protocol comment). A nil have always fetches.
func (c *Client) snapshotUnless(have *uint64) (*netmodel.Perf, []string, uint64, error) {
	resp, err := c.roundTrip(request{Op: opSnapshot, IfVersion: have})
	if err != nil {
		return nil, nil, 0, err
	}
	if resp.NotModified {
		return nil, nil, resp.Version, nil
	}
	if len(resp.LatTable) != resp.N || len(resp.BWTable) != resp.N {
		return nil, nil, 0, errors.New("directory: malformed snapshot tables")
	}
	perf := netmodel.NewPerf(resp.N)
	for i := 0; i < resp.N; i++ {
		if len(resp.LatTable[i]) != resp.N || len(resp.BWTable[i]) != resp.N {
			return nil, nil, 0, errors.New("directory: ragged snapshot tables")
		}
		for j := 0; j < resp.N; j++ {
			perf.Set(i, j, netmodel.PairPerf{Latency: resp.LatTable[i][j], Bandwidth: resp.BWTable[i][j]})
		}
	}
	// Bounds validation at the trust boundary: a snapshot is only as
	// good as the server that sent it, and a NaN or zero-bandwidth entry
	// accepted here would flow straight into scheduling arithmetic.
	if err := perf.Validate(); err != nil {
		return nil, nil, 0, fmt.Errorf("directory: snapshot failed validation: %w", err)
	}
	return perf, resp.Names, resp.Version, nil
}

// Calibrate pushes one calibration batch — fitted updates, raw samples
// for a server-side calibrator, or both — and returns the server's
// accounting: entries folded into the table, entries rejected at the
// bounds boundary, and the store version after the push.
func (c *Client) Calibrate(updates []calib.Update, samples []calib.Sample) (applied, rejected int, version uint64, err error) {
	out, err := EncodeCalibRequest(CalibRequest{Op: OpCalibrate, Updates: updates, Samples: samples})
	if err != nil {
		// Nothing touched the wire; the connection is still clean.
		return 0, 0, 0, fmt.Errorf("directory: send: %w", err)
	}
	resp, err := c.roundTripLine(out, nil)
	if err != nil {
		return 0, 0, 0, err
	}
	return resp.Applied, resp.Rejected, resp.Version, nil
}

// UpdatePair publishes fresh performance for one ordered pair.
func (c *Client) UpdatePair(src, dst int, pp netmodel.PairPerf) (uint64, error) {
	resp, err := c.roundTrip(request{Op: opUpdatePair, Src: src, Dst: dst, Latency: pp.Latency, Bandwidth: pp.Bandwidth})
	if err != nil {
		return 0, err
	}
	return resp.Version, nil
}

// Version fetches the store's version counter.
func (c *Client) Version() (uint64, error) {
	resp, err := c.roundTrip(request{Op: opVersion})
	if err != nil {
		return 0, err
	}
	return resp.Version, nil
}
