package serve

import (
	"context"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"hetsched/internal/directory"
	"hetsched/internal/obs"
	"hetsched/internal/wire"
)

// Client is a minimal plan-service client: one connection, one exchange
// at a time (wire.Client). After a transport error, a timed-out round
// trip included, every later call fails without touching the wire: a
// request nobody can read the answer to is never sent.
type Client struct {
	timeout time.Duration
	w       *wire.Client
	// buf is the connection's request buffer, taken for the length of a
	// round trip; a caller that finds it taken encodes into a fresh one.
	buf atomic.Pointer[[]byte]
}

// Dial connects to a plan-service daemon. timeout bounds the dial and
// each subsequent request round trip (0 selects 5s); ctx can cut the
// dial short and carries trace correlation for subsequent requests.
func Dial(ctx context.Context, addr string, timeout time.Duration) (*Client, error) {
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	if ctx == nil {
		ctx = context.Background()
	}
	dialer := net.Dialer{Timeout: timeout}
	conn, err := dialer.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("serve: dial %s: %w", addr, err)
	}
	return &Client{timeout: timeout, w: wire.NewClient(conn, wallClock)}, nil
}

// Plan sends one plan request and waits for its response. The op field
// is filled in; other fields are the caller's. When ctx carries a
// trace (obs.WithTrace) and the request has none, the trace ID rides
// the wire so the daemon's telemetry correlates with the caller's.
func (c *Client) Plan(ctx context.Context, req directory.PlanRequest) (directory.PlanResponse, error) {
	if c == nil {
		return directory.PlanResponse{}, fmt.Errorf("serve: nil client")
	}
	req.Op = directory.OpPlan
	if req.Trace == "" {
		req.Trace = obs.FormatTraceID(obs.TraceFrom(ctx).TraceID)
	}
	buf := c.buf.Swap(nil)
	if buf == nil {
		buf = new([]byte)
	}
	defer c.buf.Store(buf)
	line, err := directory.AppendPlanRequest((*buf)[:0], req)
	if err != nil {
		return directory.PlanResponse{}, err
	}
	*buf = line
	budget := c.timeout
	if req.DeadlineMS > 0 {
		// Wait for the server's verdict on the full client budget plus
		// slack for the network: the server resolves every admitted
		// request by its deadline, so giving up earlier than the server
		// would turn explicit outcomes into dropped connections.
		budget = time.Duration(req.DeadlineMS)*time.Millisecond + c.timeout
	}
	if ctx == nil {
		ctx = context.Background()
	}
	var resp directory.PlanResponse
	// A caller deadline tighter than the protocol budget wins.
	err = c.w.RoundTrip(ctx, line, budget, func(line []byte) (err error) {
		resp, err = directory.ParsePlanResponse(line)
		return err
	})
	if err != nil {
		// wire.ErrBroken included: "serve: connection broken".
		return directory.PlanResponse{}, fmt.Errorf("serve: %w", err)
	}
	return resp, nil
}

// Close tears down the connection. Idempotent.
func (c *Client) Close() error {
	if c == nil {
		return nil
	}
	return c.w.Close()
}
