package wire

import (
	"context"
	"errors"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// countingConn counts the writes that reach the connection.
type countingConn struct {
	net.Conn
	writes atomic.Int64
}

func (c *countingConn) Write(b []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(b)
}

func dialCounting(t *testing.T, addr string) *countingConn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	return &countingConn{Conn: conn}
}

// keep copies the response line out of the read buffer.
func keep(dst *string) func([]byte) error {
	return func(line []byte) error { *dst = string(line); return nil }
}

func TestClientRoundTrip(t *testing.T) {
	addr := startEcho(t, &Server{})
	c := NewClient(dialCounting(t, addr), time.Now)
	defer c.Close()
	for _, budget := range []time.Duration{0, time.Second} {
		var got string
		if err := c.RoundTrip(context.Background(), []byte("hello\n"), budget, keep(&got)); err != nil || got != "hello" {
			t.Fatalf("round trip (budget %v) = %q, %v", budget, got, err)
		}
	}
	if c.Broken() {
		t.Fatal("a clean client reports broken")
	}
}

// TestClientConcurrentCallersKeepFraming: the framing lock covers the
// decode, so concurrent callers each get their own answer even though
// every response aliases the one read buffer.
func TestClientConcurrentCallersKeepFraming(t *testing.T) {
	addr := startEcho(t, &Server{})
	c := NewClient(dialCounting(t, addr), time.Now)
	defer c.Close()
	var wg sync.WaitGroup
	for _, word := range []string{"alpha", "bravo", "charlie", "delta"} {
		wg.Add(1)
		go func(word string) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				var got string
				if err := c.RoundTrip(context.Background(), []byte(word+"\n"), time.Second, keep(&got)); err != nil || got != word {
					t.Errorf("sent %q, got %q, %v", word, got, err)
					return
				}
			}
		}(word)
	}
	wg.Wait()
}

// TestClientPoisonedByTransportError: after a timed-out exchange the
// connection is broken and later calls fail fast with ErrBroken without
// writing anything.
func TestClientPoisonedByTransportError(t *testing.T) {
	mute := &Server{Handler: func(dst, _ []byte) ([]byte, bool) { return dst, true }} // reads, never answers
	muteAddr := startEcho(t, mute)
	conn := dialCounting(t, muteAddr)
	c := NewClient(conn, time.Now)
	defer c.Close()

	err := c.RoundTrip(context.Background(), []byte("anyone?\n"), 50*time.Millisecond, keep(new(string)))
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("silent server: %v, want a deadline error", err)
	}
	if !c.Broken() || conn.writes.Load() != 1 {
		t.Fatalf("after the timeout: broken=%v, writes=%d; want true, 1", c.Broken(), conn.writes.Load())
	}
	for i := 0; i < 3; i++ {
		if err := c.RoundTrip(context.Background(), []byte("again\n"), time.Second, keep(new(string))); err != ErrBroken {
			t.Fatalf("call on a broken client = %v, want ErrBroken", err)
		}
	}
	if n := conn.writes.Load(); n != 1 {
		t.Fatalf("a broken client wrote %d more requests", n-1)
	}
}

// TestClientPoisonedByDecodeError: a line the decoder refuses means the
// stream cannot be trusted; the error comes back as is and the client
// is broken.
func TestClientPoisonedByDecodeError(t *testing.T) {
	addr := startEcho(t, &Server{})
	c := NewClient(dialCounting(t, addr), time.Now)
	defer c.Close()
	refuse := errors.New("not what I asked")
	if err := c.RoundTrip(context.Background(), []byte("x\n"), time.Second, func([]byte) error { return refuse }); err != refuse {
		t.Fatalf("decode error came back as %v", err)
	}
	if !c.Broken() {
		t.Fatal("a refused line did not break the connection")
	}
}

// TestClientDeadlineIsTheTighterOfBudgetAndContext, on the injected
// clock: budget counts from the clock's now, ctx caps it, and with
// neither the deadline is cleared.
func TestClientDeadlineIsTheTighterOfBudgetAndContext(t *testing.T) {
	addr := startEcho(t, &Server{})
	far := time.Now().Add(24 * time.Hour)
	dc := &deadlineConn{Conn: dialCounting(t, addr)}
	c := NewClient(dc, func() time.Time { return far })
	defer c.Close()
	soon, cancel := context.WithDeadline(context.Background(), time.Now().Add(time.Minute))
	defer cancel()
	soonDl, _ := soon.Deadline()
	for i, tc := range []struct {
		ctx    context.Context
		budget time.Duration
		want   time.Time
	}{
		{context.Background(), time.Second, far.Add(time.Second)},
		{soon, time.Second, soonDl},
		{soon, 0, soonDl},
		{context.Background(), 0, time.Time{}},
	} {
		if err := c.RoundTrip(tc.ctx, []byte("x\n"), tc.budget, keep(new(string))); err != nil {
			t.Fatal(err)
		}
		if read, _ := dc.deadlines(); len(read) != i+1 || !read[i].Equal(tc.want) {
			t.Errorf("case %d: deadlines %v, want the last to be %v", i, read, tc.want)
		}
	}
}

// TestClientDeadlineFaultBreaks: when the connection refuses the
// exchange's deadline, RoundTrip fails with that error before writing a
// byte and the client is broken, rather than sending a request that
// could block past the caller's budget.
func TestClientDeadlineFaultBreaks(t *testing.T) {
	conn := dialCounting(t, startEcho(t, &Server{}))
	c := NewClient(&deadlineFault{Conn: conn, read: true, write: true}, time.Now)
	defer c.Close()
	if err := c.RoundTrip(context.Background(), []byte("x\n"), time.Second, keep(new(string))); !errors.Is(err, errDeadline) {
		t.Fatalf("round trip = %v, want the deadline fault", err)
	}
	if !c.Broken() || conn.writes.Load() != 0 {
		t.Fatalf("after the fault: broken=%v, writes=%d; want true, 0", c.Broken(), conn.writes.Load())
	}
}

func TestClientCloseIdempotent(t *testing.T) {
	addr := startEcho(t, &Server{})
	c := NewClient(dialCounting(t, addr), time.Now)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if err := c.RoundTrip(context.Background(), []byte("x\n"), 0, keep(new(string))); err != ErrBroken {
		t.Fatalf("round trip on a closed client = %v, want ErrBroken", err)
	}
}
