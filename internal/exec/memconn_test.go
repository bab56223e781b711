package exec

import (
	"bytes"
	"errors"
	"io"
	"net"
	"os"
	"sync"
	"testing"
	"time"
)

// memConnPair dials 0→1 over a fresh two-node Mem and accepts the far
// half: the client is the dial half, the server the accept half.
func memConnPair(t *testing.T) (tr *Mem, client, server net.Conn) {
	t.Helper()
	tr, err := NewMem(2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	if client, err = tr.Dial(0, 1); err != nil {
		t.Fatal(err)
	}
	if server, err = tr.Accept(1); err != nil {
		t.Fatal(err)
	}
	return tr, client, server
}

// pattern is n bytes that differ from their neighbours and repeat
// rarely, so a misplaced chunk shows.
func pattern(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed + byte(i) + byte(i>>8)*7
	}
	return b
}

// result is what an operation run in the background returned.
type result struct {
	n   int
	err error
}

func background(op func() (int, error)) <-chan result {
	ch := make(chan result, 1)
	go func() {
		n, err := op()
		ch <- result{n, err}
	}()
	return ch
}

// await returns the background operation's result, failing t if it
// takes longer than within.
func await(t *testing.T, ch <-chan result, within time.Duration, what string) result {
	t.Helper()
	select {
	case r := <-ch:
		return r
	case <-time.After(within):
		t.Fatalf("%s still blocked after %v", what, within)
		return result{}
	}
}

func isTimeout(err error) bool {
	var ne net.Error
	return errors.Is(err, os.ErrDeadlineExceeded) && errors.As(err, &ne) && ne.Timeout()
}

func TestExecMemConnDeadlines(t *testing.T) {
	_, client, server := memConnPair(t)
	buf := make([]byte, 8)

	// Past: the read fails at once, with the timeout socket callers test for.
	if err := client.SetReadDeadline(time.Now().Add(-time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Read(buf); !isTimeout(err) {
		t.Fatalf("read past its deadline: %v, want a timeout", err)
	}

	// Future: the read blocks until the deadline, then fails the same way.
	if err := client.SetReadDeadline(time.Now().Add(30 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	began := time.Now()
	if _, err := client.Read(buf); !isTimeout(err) {
		t.Fatalf("read under a future deadline: %v, want a timeout", err)
	}
	if waited := time.Since(began); waited < 25*time.Millisecond {
		t.Fatalf("read timed out after %v, before its 30ms deadline", waited)
	}

	// Cleared: the read waits for data, however long it takes.
	if err := client.SetReadDeadline(time.Time{}); err != nil {
		t.Fatal(err)
	}
	got := background(func() (int, error) { return client.Read(buf) })
	time.Sleep(40 * time.Millisecond)
	if _, err := server.Write([]byte("late")); err != nil {
		t.Fatal(err)
	}
	if r := await(t, got, 5*time.Second, "read with a cleared deadline"); r.err != nil || string(buf[:r.n]) != "late" {
		t.Fatalf("read with a cleared deadline: %q, %v", buf[:r.n], r.err)
	}

	// A deadline moved while the read sleeps takes effect.
	got = background(func() (int, error) { return client.Read(buf) })
	time.Sleep(10 * time.Millisecond)
	if err := client.SetReadDeadline(time.Now().Add(10 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if r := await(t, got, 5*time.Second, "read whose deadline was moved in"); !isTimeout(r.err) {
		t.Fatalf("read whose deadline was moved in: %v, want a timeout", r.err)
	}

	// A write the reader never takes times out, having written nothing.
	if err := server.SetWriteDeadline(time.Now().Add(20 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if n, err := server.Write(make([]byte, 4096)); n != 0 || !isTimeout(err) {
		t.Fatalf("unread write under a deadline: %d, %v; want 0 and a timeout", n, err)
	}
}

func TestExecMemConnLargeWriteOddReads(t *testing.T) {
	_, client, server := memConnPair(t)
	want := pattern(100_003, 3)
	wrote := background(func() (int, error) { return client.Write(want) })
	var got []byte
	buf := make([]byte, 4099)
	for size := 1; len(got) < len(want); size = size*3%4099 + 1 {
		n, err := server.Read(buf[:size])
		if err != nil {
			t.Fatalf("read after %d bytes: %v", len(got), err)
		}
		got = append(got, buf[:n]...)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("bytes read in odd pieces differ from the bytes written")
	}
	if r := await(t, wrote, 5*time.Second, "large write"); r.n != len(want) || r.err != nil {
		t.Fatalf("large write returned %d, %v", r.n, r.err)
	}
}

func TestExecMemConnSmallWritesQueueBehindLarge(t *testing.T) {
	_, client, server := memConnPair(t)
	header, big, tail := pattern(frameLen, 1), pattern(70_000, 2), [][]byte{{0xa}, pattern(40, 9), {0xb}}
	var want []byte
	want = append(append(want, header...), big...)
	for _, b := range tail {
		want = append(want, b...)
	}
	wrote := background(func() (int, error) {
		total := 0
		for _, b := range append([][]byte{header, big}, tail...) {
			n, err := client.Write(b)
			total += n
			if err != nil {
				return total, err
			}
		}
		return total, nil
	})
	got := make([]byte, len(want))
	if _, err := io.ReadFull(server, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("writes arrived out of order or changed")
	}
	if r := await(t, wrote, 5*time.Second, "writes"); r.n != len(want) || r.err != nil {
		t.Fatalf("writes returned %d, %v", r.n, r.err)
	}
}

// TestExecMemConnWrittenBytesOutliveClose is the executor's ack: one
// byte written just before the receiver closes still reaches the
// sender, and only then does the sender see io.EOF.
func TestExecMemConnWrittenBytesOutliveClose(t *testing.T) {
	_, client, server := memConnPair(t)
	if _, err := server.Write([]byte{byte(ackOK)}); err != nil {
		t.Fatal(err)
	}
	if err := server.Close(); err != nil {
		t.Fatal(err)
	}
	ack := make([]byte, 4)
	if n, err := client.Read(ack); n != 1 || err != nil || ackCode(ack[0]) != ackOK {
		t.Fatalf("read after the peer closed: %d %v %v, want the ack", n, err, ackCode(ack[0]))
	}
	if n, err := client.Read(ack); n != 0 || err != io.EOF {
		t.Fatalf("read after draining a closed peer: %d, %v; want io.EOF", n, err)
	}
}

func TestExecMemConnClosedEnds(t *testing.T) {
	_, client, server := memConnPair(t)
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}
	if err := client.Close(); err == nil {
		t.Fatal("second Close succeeded")
	}
	if _, err := server.Write([]byte("x")); err == nil {
		t.Fatal("write to a closed peer succeeded")
	}
	if _, err := client.Write([]byte("x")); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("write on a closed end: %v, want net.ErrClosed", err)
	}
	if _, err := client.Read(make([]byte, 1)); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("read on a closed end: %v, want net.ErrClosed", err)
	}
	if err := client.SetDeadline(time.Now()); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("deadline on a closed end: %v, want net.ErrClosed", err)
	}
	// A socket lets the open end change its deadline after the peer left.
	if err := server.SetDeadline(time.Time{}); err != nil {
		t.Fatalf("deadline on the open end of a half-closed pipe: %v", err)
	}

	// A write blocked handing its bytes over fails when the reader closes.
	_, client, server = memConnPair(t)
	wrote := background(func() (int, error) { return client.Write(make([]byte, 10_000)) })
	time.Sleep(10 * time.Millisecond)
	if err := server.Close(); err != nil {
		t.Fatal(err)
	}
	if r := await(t, wrote, 5*time.Second, "write to a peer that closed"); r.err == nil || r.n != 0 {
		t.Fatalf("write to a peer that closed returned %d, %v", r.n, r.err)
	}
}

// TestExecMemConnConcurrentReadWrite drives one end's Read and Write
// from two goroutines against an echoing peer. Were one side's sleeper
// to take the other's wake-up, the exchange would stall.
func TestExecMemConnConcurrentReadWrite(t *testing.T) {
	_, client, server := memConnPair(t)
	var want []byte
	for i := 0; i < 60; i++ {
		want = append(want, pattern([]int{1, 33, 200, 5000}[i%4], byte(i))...)
	}
	deadline := time.Now().Add(10 * time.Second)
	for _, c := range []net.Conn{client, server} {
		if err := c.SetDeadline(deadline); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	wg.Add(3)
	go func() { // the peer echoes what it reads
		defer wg.Done()
		buf := make([]byte, 777)
		for echoed := 0; echoed < len(want); {
			n, err := server.Read(buf)
			if err != nil {
				t.Errorf("echo read: %v", err)
				return
			}
			if _, err := server.Write(buf[:n]); err != nil {
				t.Errorf("echo write: %v", err)
				return
			}
			echoed += n
		}
	}()
	go func() {
		defer wg.Done()
		for off, i := 0, 0; off < len(want); i++ {
			size := []int{1, 33, 200, 5000}[i%4]
			if _, err := client.Write(want[off : off+size]); err != nil {
				t.Errorf("write: %v", err)
				return
			}
			off += size
		}
	}()
	got := make([]byte, len(want))
	go func() {
		defer wg.Done()
		if _, err := io.ReadFull(client, got); err != nil {
			t.Errorf("read: %v", err)
		}
	}()
	wg.Wait()
	if !t.Failed() && !bytes.Equal(got, want) {
		t.Fatal("echoed bytes differ from the bytes written")
	}
}

// TestExecMemConnSeveredUnblocks: killing either node or closing the
// transport ends a read and a write blocked on either end of the pipe,
// both at once. The two block on one end, since the far end takes what
// the near end writes.
func TestExecMemConnSeveredUnblocks(t *testing.T) {
	for _, tc := range []struct {
		name  string
		sever func(*Mem)
	}{
		{"kill src", func(m *Mem) { m.Kill(0) }},
		{"kill dst", func(m *Mem) { m.Kill(1) }},
		{"close", func(m *Mem) { m.Close() }},
	} {
		for _, end := range []string{"dial half", "accept half"} {
			t.Run(tc.name+"/"+end, func(t *testing.T) {
				tr, c, accepted := memConnPair(t)
				if end == "accept half" {
					c = accepted
				}
				read := background(func() (int, error) { return c.Read(make([]byte, 8)) })
				wrote := background(func() (int, error) { return c.Write(make([]byte, 1<<20)) })
				time.Sleep(20 * time.Millisecond)
				tc.sever(tr)
				if r := await(t, read, 100*time.Millisecond, "read"); r.err == nil {
					t.Fatal("blocked read succeeded on a severed pipe")
				}
				if r := await(t, wrote, 100*time.Millisecond, "write"); r.err == nil {
					t.Fatal("blocked write succeeded on a severed pipe")
				}
			})
		}
	}
}

// TestExecMemConnDeadlineIsPerEnd: a deadline on one end does not reach
// the other.
func TestExecMemConnDeadlineIsPerEnd(t *testing.T) {
	_, client, server := memConnPair(t)
	if err := client.SetDeadline(time.Now().Add(-time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Read(make([]byte, 1)); !isTimeout(err) {
		t.Fatalf("read past its deadline: %v, want a timeout", err)
	}
	if _, err := server.Write([]byte("ok")); err != nil {
		t.Fatalf("the peer's write: %v", err)
	}
	if err := server.SetReadDeadline(time.Now().Add(30 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	began := time.Now()
	if _, err := server.Read(make([]byte, 1)); !isTimeout(err) {
		t.Fatalf("the peer's read: %v, want its own timeout", err)
	}
	if waited := time.Since(began); waited < 25*time.Millisecond {
		t.Fatalf("the peer's read timed out after %v, before its own 30ms deadline", waited)
	}
	if err := client.SetDeadline(time.Time{}); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 2)
	if _, err := io.ReadFull(client, buf); err != nil || string(buf) != "ok" {
		t.Fatalf("read after clearing the deadline: %q, %v", buf, err)
	}
}
