package wire

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// ErrBroken is what RoundTrip returns, without touching the wire, once
// the connection's framing cannot be trusted or it has been closed.
var ErrBroken = errors.New("connection broken")

// Client is the client half of the framing: one connection, one
// exchange at a time. The mutex is the framing lock: it serializes
// whole exchanges, so the network I/O under it is the point, not an
// accident — a second goroutine interleaving writes would corrupt the
// stream, not speed it up. After a transport error part of a request
// may have been written or part of a response left unread, so the
// client is broken for good: later RoundTrips fail fast, and recovery
// is a new Client on a new connection.
type Client struct {
	mu     sync.Mutex
	conn   net.Conn // nil once closed
	sc     *bufio.Scanner
	broken atomic.Bool
	clock  func() time.Time // source of request deadlines
}

// NewClient frames an established connection.
func NewClient(conn net.Conn, clock func() time.Time) *Client {
	return &Client{conn: conn, sc: newScanner(conn), clock: clock}
}

// RoundTrip writes one request line and hands the one response line to
// decode under the framing lock: the line aliases the read buffer and
// is only valid until decode returns. The exchange must finish within
// budget of taking the lock (0: unbounded) and by ctx's deadline. A
// transport failure or a decode error — garbage is indistinguishable
// from a connection severed mid-frame — breaks the connection.
func (c *Client) RoundTrip(ctx context.Context, out []byte, budget time.Duration, decode func(line []byte) error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.broken.Load() {
		return ErrBroken
	}
	var dl time.Time // zero clears the deadline
	if budget > 0 {
		dl = c.clock().Add(budget)
	}
	if cd, ok := ctx.Deadline(); ok && (dl.IsZero() || cd.Before(dl)) {
		dl = cd
	}
	//hetvet:ignore lockio the mutex is the framing lock; see the type comment
	err := c.exchange(out, dl, decode)
	c.broken.Store(err != nil)
	return err
}

// exchange is RoundTrip's wire work, under c.mu.
func (c *Client) exchange(out []byte, dl time.Time, decode func(line []byte) error) error {
	if err := c.conn.SetDeadline(dl); err != nil {
		return fmt.Errorf("set deadline: %w", err)
	}
	if _, err := c.conn.Write(out); err != nil {
		return fmt.Errorf("send: %w", err)
	}
	if !c.sc.Scan() {
		if err := c.sc.Err(); err != nil {
			return fmt.Errorf("receive: %w", err)
		}
		return errors.New("connection closed by server")
	}
	return decode(c.sc.Bytes())
}

// Broken reports whether the client is unusable; it does not wait for
// an exchange in flight.
func (c *Client) Broken() bool { return c.broken.Load() }

// Close shuts the connection, after unlocking so the next caller fails
// fast (ErrBroken) instead of queueing behind teardown. Idempotent.
func (c *Client) Close() error {
	c.mu.Lock()
	c.broken.Store(true)
	conn := c.conn
	c.conn = nil
	c.mu.Unlock()
	if conn == nil {
		return nil
	}
	return conn.Close()
}
