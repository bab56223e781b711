package faults

import (
	"bytes"
	"io"
	"net"
	"testing"
	"time"
)

func TestSlowClientTricklesWritesIntact(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	in := NewSlowClientInjector(SlowClientConfig{ChunkBytes: 3, Pause: 10 * time.Millisecond})
	slow := in.Wrap(a)
	msg := []byte("hello, slow world")

	got := make(chan []byte, 1)
	go func() {
		buf := make([]byte, len(msg))
		if _, err := io.ReadFull(b, buf); err != nil {
			got <- nil
			return
		}
		got <- buf
	}()
	start := time.Now()
	n, err := slow.Write(msg)
	if err != nil || n != len(msg) {
		t.Fatalf("trickled write: n=%d err=%v", n, err)
	}
	// ceil(17/3) = 6 chunks, one pause each: the trickle is real.
	if elapsed := time.Since(start); elapsed < 50*time.Millisecond {
		t.Fatalf("write finished in %v; the trickle is not trickling", elapsed)
	}
	if buf := <-got; !bytes.Equal(buf, msg) {
		t.Fatalf("bytes corrupted in transit: %q", buf)
	}
	if in.Conns() != 1 {
		t.Fatalf("wrapped %d conns, want 1", in.Conns())
	}
}

// TestSlowClientWriteDeadlineStillFires: a deadline armed on the
// underlying conn cuts a trickling write off — the defense the serve
// package's write timeouts rely on.
func TestSlowClientWriteDeadlineStillFires(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	in := NewSlowClientInjector(SlowClientConfig{ChunkBytes: 1, Pause: 5 * time.Millisecond})
	slow := in.Wrap(a)
	if err := a.SetWriteDeadline(time.Now().Add(25 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	go func() {
		buf := make([]byte, 1)
		for {
			if _, err := b.Read(buf); err != nil {
				return
			}
		}
	}()
	big := make([]byte, 10_000) // would take ~50s at the trickle rate
	start := time.Now()
	n, err := slow.Write(big)
	if err == nil {
		t.Fatal("a 10s trickle beat a 25ms deadline")
	}
	if n >= len(big) {
		t.Fatalf("deadline fired but the whole payload went through (n=%d)", n)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("deadline took %v to cut the trickle off", elapsed)
	}
}

func TestSlowClientReadTrickle(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	in := NewSlowClientInjector(SlowClientConfig{
		ChunkBytes: 2, Pause: time.Millisecond, PauseReads: true})
	slow := in.Wrap(a)
	go func() {
		b.Write([]byte("abcdef"))
	}()
	buf := make([]byte, 64)
	n, err := slow.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	if n > 2 {
		t.Fatalf("trickling read returned %d bytes, chunk is 2", n)
	}
}
