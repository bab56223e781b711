package directory

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"hetsched/internal/calib"
	"hetsched/internal/netmodel"
	"hetsched/internal/wire"
)

// Sentinel errors for the client's failure model. ErrUnavailable wraps
// every transport-level failure (dial, write, read, timeout, server
// hangup) so callers can distinguish "the server could not be reached"
// from a server-reported error such as an out-of-range pair; the
// former is retriable, the latter is not.
var (
	// ErrBroken is returned by every call after a transport failure
	// left the connection in an undefined framing state; the client is
	// done, and recovery is a fresh Dial.
	ErrBroken = errors.New("directory: client connection broken")
	// ErrUnavailable marks transport-level failures; test with
	// errors.Is to decide whether retrying can help.
	ErrUnavailable = errors.New("directory: server unavailable")
)

// wallClock is this package's single sanctioned wall-clock source.
// Every deadline — client round trips, server idle timeouts, resilient
// retry pacing — flows through an injectable clock defaulting to it,
// so tests and chaos runs can substitute a fake clock.
var wallClock = time.Now

// Client talks to a directory server over TCP. It is safe for
// concurrent use; requests on one client are serialized over one
// connection (the protocol is strictly request/response). The round
// trip is wire.Client's, and so is the rule that a transport error
// breaks the connection: every later call fails fast with ErrBroken,
// and recovery is a fresh Dial (ResilientClient dials one after every
// break). This type owns the ops and the error contract.
type Client struct {
	w          *wire.Client
	reqTimeout atomic.Int64 // time.Duration; 0 means unbounded
}

// Dial connects to a directory server. timeout bounds the connection
// attempt; zero means no timeout.
func Dial(addr string, timeout time.Duration) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("%w: dial %s: %v", ErrUnavailable, addr, err)
	}
	return &Client{w: wire.NewClient(conn, wallClock)}, nil
}

// SetRequestTimeout bounds every subsequent round trip (write plus
// read) with a connection deadline. Zero restores unbounded requests.
func (c *Client) SetRequestTimeout(d time.Duration) { c.reqTimeout.Store(int64(d)) }

// Broken reports whether a transport error has left the client unusable.
func (c *Client) Broken() bool { return c.w.Broken() }

// Close shuts the connection; later calls return ErrBroken.
func (c *Client) Close() error { return c.w.Close() }

func (c *Client) roundTrip(req request) (response, error) {
	out, err := encodeRequest(req)
	if err != nil {
		// Nothing touched the wire; the connection is still clean.
		return response{}, fmt.Errorf("directory: send: %w", err)
	}
	return c.roundTripLine(out, req.IfVersion)
}

// roundTripLine exchanges one pre-encoded request line for a response
// — shared by the scalar request union and the calibration frames,
// whose slice payloads the union cannot hold. asked is the if_version
// sent (nil: none), the only version a not_modified reply may name.
func (c *Client) roundTripLine(out []byte, asked *uint64) (response, error) {
	var resp response
	err := c.w.RoundTrip(context.Background(), out, time.Duration(c.reqTimeout.Load()), func(line []byte) (err error) {
		if resp, err = parseResponse(line); err != nil {
			return err
		}
		if resp.NotModified && (asked == nil || resp.Version != *asked) {
			// An answer to a question this request did not ask: the
			// stream is out of step, the same fault as garbage on it.
			return fmt.Errorf("unsolicited not_modified (version %d)", resp.Version)
		}
		return nil
	})
	switch {
	case errors.Is(err, wire.ErrBroken):
		return response{}, fmt.Errorf("%w (dial a new client to recover)", ErrBroken)
	case err != nil:
		return response{}, fmt.Errorf("%w: %v", ErrUnavailable, err)
	case !resp.OK:
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

// Version fetches the store's version counter.
func (c *Client) Version() (uint64, error) {
	resp, err := c.roundTrip(request{Op: opVersion})
	if err != nil {
		return 0, err
	}
	return resp.Version, nil
}
