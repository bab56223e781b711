package exec

import (
	"context"
	"net"
	"sync"
	"sync/atomic"
	"testing"
)

// corruptor flips one payload byte of the first attempt it sees for
// one pair, on the accept side, leaving header and ack alone. It keeps
// the ack codes the receiver answered on that connection.
type corruptor struct {
	src, dst int
	flipAt   func(size int64) int64 // payload offset to flip
	spent    atomic.Bool

	mu   sync.Mutex
	acks []ackCode
}

func (k *corruptor) wrap(c net.Conn) net.Conn { return &corruptConn{Conn: c, k: k} }

func (k *corruptor) answered() []ackCode {
	k.mu.Lock()
	defer k.mu.Unlock()
	return append([]ackCode(nil), k.acks...)
}

// corruptConn follows one accept-side stream: the binary header, then
// payload offsets. One receive port owns it.
type corruptConn struct {
	net.Conn
	k      *corruptor
	header []byte
	hit    bool  // this connection is the corrupted attempt
	flipAt int64 // valid when hit
	off    int64 // payload bytes seen
}

func (c *corruptConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	for i := 0; i < n; i++ {
		if len(c.header) < frameLen {
			c.header = append(c.header, p[i])
			if len(c.header) == frameLen {
				h, ok := parseFrame((*[frameLen]byte)(c.header))
				if ok && int(h.src) == c.k.src && int(h.dst) == c.k.dst &&
					h.size > 0 && c.k.spent.CompareAndSwap(false, true) {
					c.hit, c.flipAt = true, c.k.flipAt(int64(h.size))
				}
			}
			continue
		}
		if c.hit && c.off == c.flipAt {
			p[i] ^= 0x40
		}
		c.off++
	}
	return n, err
}

func (c *corruptConn) Write(p []byte) (int, error) {
	if c.hit {
		c.k.mu.Lock()
		for _, b := range p {
			c.k.acks = append(c.k.acks, ackCode(b))
		}
		c.k.mu.Unlock()
	}
	return c.Conn.Write(p)
}

// xorPayload is a caller-supplied generator, distinct from the default
// pattern, so the adapter path is what verifies.
func xorPayload(src, dst int, size int64) []byte {
	b := make([]byte, size)
	for i := range b {
		b[i] = byte(17*src) ^ byte(29*dst) ^ byte(3*i)
	}
	return b
}

// killOnNack dials like the transport it wraps, except that the first
// connection of one pair reports a third node dead once the receiver's
// rejection arrives: the sender drops the transfer mid-ladder, the
// round aborts, and the pair's next attempt happens under a replan.
type killOnNack struct {
	Transport
	src, dst, victim int
	spent            atomic.Bool
}

func (k *killOnNack) Dial(src, dst int) (net.Conn, error) {
	c, err := k.Transport.Dial(src, dst)
	if err != nil || src != k.src || dst != k.dst || !k.spent.CompareAndSwap(false, true) {
		return c, err
	}
	return &nackConn{Conn: c, k: k}, nil
}

type nackConn struct {
	net.Conn
	k *killOnNack
}

// Read sees only the ack: the sender reads nothing else.
func (c *nackConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 && ackCode(p[0]) != ackOK {
		c.k.Transport.Kill(c.k.victim)
		return 0, &PeerDeadError{Node: c.k.victim}
	}
	return n, err
}

// TestExecCorruptPayloadRejected pins byte-exact verification: a
// payload that differs from what the generator defines in a single
// byte, wherever that byte sits, is rejected; the retry delivers the
// right bytes exactly once.
func TestExecCorruptPayloadRejected(t *testing.T) {
	const n, src, dst = 5, 1, 2
	cases := []struct {
		name       string
		flipAt     func(size int64) int64
		payload    PayloadFunc // nil: the default generator
		laterRound bool        // the retry is a replanned round's, after a kill
	}{
		{name: "first byte", flipAt: func(int64) int64 { return 0 }},
		{name: "middle byte", flipAt: func(s int64) int64 { return s / 2 }},
		{name: "last byte", flipAt: func(s int64) int64 { return s - 1 }},
		{name: "custom generator", flipAt: func(s int64) int64 { return s / 2 }, payload: xorPayload},
		{name: "retry in a later round", flipAt: func(s int64) int64 { return s - 1 }, laterRound: true},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			res, m, sizes := testProblem(t, n)
			sizes.Set(src, dst, 70_001) // well past the generator's first period
			mem, err := NewMem(n)
			if err != nil {
				t.Fatal(err)
			}
			k := &corruptor{src: src, dst: dst, flipAt: tc.flipAt}
			mem.SetConnWrapper(k.wrap)
			var tr Transport = mem
			if tc.laterRound {
				tr = &killOnNack{Transport: mem, src: src, dst: dst, victim: n - 1}
			}
			want := DefaultPayload
			if tc.payload != nil {
				want = tc.payload
			}
			s := newSink(t)
			s.want = want
			cfg := fastCfg()
			cfg.Payload = tc.payload
			cfg.Deliver = s.deliver
			ex, err := New(tr, cfg)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := ex.Run(context.Background(), res, m, sizes)
			if err != nil {
				t.Fatal(err)
			}
			if got := k.answered(); len(got) != 1 || got[0] != ackCorrupt {
				t.Fatalf("corrupted attempt was answered %v, want [%v]", got, ackCorrupt)
			}
			if got, ok := s.got(src, dst); !ok || got != sizes.At(src, dst) {
				t.Fatalf("pair %d→%d delivered %d bytes (present=%v), want %d once", src, dst, got, ok, sizes.At(src, dst))
			}
			if !rep.Accounted() {
				t.Fatalf("bytes not partitioned:\n%s", rep)
			}
			if tc.laterRound {
				if rep.Replans == 0 || rep.ReroutedBytes < sizes.At(src, dst) {
					t.Fatalf("pair %d→%d was not carried by a replanned round:\n%s", src, dst, rep)
				}
				return
			}
			if rep.Retries < 1 {
				t.Fatalf("rejection caused no retry:\n%s", rep)
			}
			if rep.DeliveredBytes != sizes.TotalBytes() {
				t.Fatalf("delivered %d of %d bytes:\n%s", rep.DeliveredBytes, sizes.TotalBytes(), rep)
			}
		})
	}
}

// TestExecPayloadGeneratedOncePerTransfer pins the ledger's single
// generation: however many attempts and rounds a transfer takes, and
// however many receives are verified against it, the generator runs
// once per pair.
func TestExecPayloadGeneratedOncePerTransfer(t *testing.T) {
	const n, src, dst = 5, 1, 2
	res, m, sizes := testProblem(t, n)
	mem, err := NewMem(n)
	if err != nil {
		t.Fatal(err)
	}
	// Pair src→dst is corrupted once, rejected, and resent under a
	// replan; the first acks on other pairs are lost, so those resend
	// too.
	k := &corruptor{src: src, dst: dst, flipAt: func(s int64) int64 { return s / 2 }}
	var budget atomic.Int32
	budget.Store(3)
	mem.SetConnWrapper(k.wrap)
	mem.SetPairWrapper(func(s, d int, c net.Conn) net.Conn {
		if s == src && d == dst {
			return c
		}
		return &ackDropConn{Conn: c, budget: &budget}
	})
	var mu sync.Mutex
	calls := map[[2]int]int{}
	cfg := fastCfg()
	cfg.Payload = func(src, dst int, size int64) []byte {
		mu.Lock()
		calls[[2]int{src, dst}]++
		mu.Unlock()
		return xorPayload(src, dst, size)
	}
	s := newSink(t)
	s.want = xorPayload
	cfg.Deliver = s.deliver
	ex, err := New(&killOnNack{Transport: mem, src: src, dst: dst, victim: n - 1}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ex.Run(context.Background(), res, m, sizes)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Retries == 0 || rep.Replans == 0 || !rep.Accounted() {
		t.Fatalf("scenario did not retry and replan:\n%s", rep)
	}
	if len(calls) == 0 {
		t.Fatal("generator never ran")
	}
	for pair, c := range calls {
		if c != 1 {
			t.Errorf("generator ran %d times for pair %d→%d, want 1", c, pair[0], pair[1])
		}
	}
}
