package exec

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"net"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hetsched/internal/model"
	"hetsched/internal/obs"
)

// The hostile-stream instance: three nodes, the port under attack is
// node 1, and its two inbound pairs carry 24 bytes (0→1) and nothing
// (2→1), so the fuzzer can reach honest frames of both kinds.
const (
	fuzzN    = 3
	fuzzPort = 1
)

func fuzzProblem() (*model.Matrix, *model.Sizes) {
	m, sizes := model.NewMatrix(fuzzN), model.NewSizes(fuzzN)
	for i := 0; i < fuzzN; i++ {
		for j := 0; j < fuzzN; j++ {
			if i != j {
				m.Set(i, j, 1e-4)
				sizes.Set(i, j, int64(8*(i+j)))
			}
		}
	}
	sizes.Set(0, fuzzPort, 24)
	sizes.Set(2, fuzzPort, 0)
	return m, sizes
}

// validFrame is the byte-exact first attempt src makes to dst in the
// first exchange of a fresh executor.
func validFrame(src, dst int, size int64) []byte {
	h := frameHeader{xid: 1, src: uint32(src), dst: uint32(dst), size: uint64(size)}
	var b [frameLen]byte
	h.put(&b)
	return append(b[:], DefaultPayload(src, dst, size)...)
}

// streamConn feeds a fixed byte string to the receive port as the
// whole inbound stream, then EOF; the port's ack, deadlines and close
// still go to the pipe half underneath.
type streamConn struct {
	net.Conn
	in *bytes.Reader
}

func (c *streamConn) Read(p []byte) (int, error) { return c.in.Read(p) }

// wantVerdict is the fuzz oracle, written from the wire format rather
// than from receive: the ack a port owes a whole inbound stream, with
// answered false when it owes none (the header never completed), and
// the pair an ok applies.
func wantVerdict(stream []byte, xid uint64, sizes *model.Sizes) (code ackCode, answered bool, src int) {
	if len(stream) < frameLen {
		return 0, false, -1
	}
	be := binary.BigEndian
	s, d, size := be.Uint32(stream[9:]), be.Uint32(stream[13:]), be.Uint64(stream[25:])
	if stream[0] != frameVersion || be.Uint64(stream[1:]) != xid || d != fuzzPort ||
		s >= fuzzN || s == fuzzPort || size != uint64(sizes.At(int(s), fuzzPort)) {
		return ackRefused, true, -1
	}
	body := stream[frameLen:]
	if uint64(len(body)) < size {
		return ackRefused, true, -1
	}
	if !bytes.Equal(body[:size], DefaultPayload(int(s), fuzzPort, int64(size))) {
		return ackCorrupt, true, -1
	}
	return ackOK, true, int(s)
}

// FuzzExecFrame holds the binary frame to two properties. Header: every
// header survives encode then decode unchanged. Hostile stream: any
// byte string, fed as the whole inbound stream to a receive port over
// Mem, never panics the port and never applies or delivers anything
// but the one honest frame it may spell; it is answered refused or
// corrupt, or closed unanswered, and the port then serves the next
// honest transfer.
func FuzzExecFrame(f *testing.F) {
	m, sizes := fuzzProblem()
	valid := validFrame(0, fuzzPort, sizes.At(0, fuzzPort))
	for i := 0; i <= len(valid); i++ {
		f.Add(valid[:i])
	}
	f.Add(validFrame(2, fuzzPort, 0))
	// Each field at 0, -1 (all ones) and its signed maximum, as its
	// leading byte and the fill after it.
	for _, field := range []struct{ off, width int }{{0, 1}, {1, 8}, {9, 4}, {13, 4}, {17, 4}, {21, 4}, {25, 8}} {
		for _, v := range [][2]byte{{0x00, 0x00}, {0xff, 0xff}, {0x7f, 0xff}} {
			b := append([]byte(nil), valid...)
			b[field.off] = v[0]
			for k := 1; k < field.width; k++ {
				b[field.off+k] = v[1]
			}
			f.Add(b)
		}
	}
	f.Add(append([]byte(`{"xid":1,"src":0,"dst":1,"round":0,"attempt":0,"size":24}`+"\n"),
		DefaultPayload(0, fuzzPort, 24)...))

	f.Fuzz(func(t *testing.T, stream []byte) {
		var raw [frameLen]byte
		copy(raw[:], stream)
		raw[0] = frameVersion
		h, ok := parseFrame(&raw)
		var again [frameLen]byte
		h.put(&again)
		if h2, ok2 := parseFrame(&again); !ok || !ok2 || h2 != h || again != raw {
			t.Fatalf("header %x decoded to %+v and re-encoded to %x", raw, h, again)
		}

		mem, err := NewMem(fuzzN)
		if err != nil {
			t.Fatal(err)
		}
		var hostile atomic.Bool
		mem.SetConnWrapper(func(c net.Conn) net.Conn {
			if hostile.CompareAndSwap(false, true) {
				return &streamConn{Conn: c, in: bytes.NewReader(stream)}
			}
			return c
		})
		var mu sync.Mutex
		var delivered [][2]int
		ex, err := New(mem, Config{
			MinDeadline: 5 * time.Second,
			Deliver: func(src, dst int, payload []byte) {
				mu.Lock()
				delivered = append(delivered, [2]int{src, dst})
				mu.Unlock()
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		r := ex.newRun(m, sizes)
		r.ctx = context.Background()
		r.acceptWg.Add(1)
		go r.acceptLoop(fuzzPort)
		defer func() {
			if err := mem.Close(); err != nil {
				t.Error(err)
			}
			r.acceptWg.Wait()
			r.releasePayloads()
		}()

		c, err := mem.Dial(0, fuzzPort)
		if err != nil {
			t.Fatal(err)
		}
		// The port may already have closed the pipe of a stream shorter
		// than a header; the read below reports that as EOF.
		c.SetDeadline(time.Now().Add(5 * time.Second))
		var ack [1]byte
		n, err := c.Read(ack[:])
		severAll(c)
		want, answered, src := wantVerdict(stream, r.xid, sizes)
		switch {
		case !answered && n != 0:
			t.Fatalf("stream %x is shorter than a header but was answered %v", stream, ackCode(ack[0]))
		case answered && n == 0:
			t.Fatalf("stream %x was closed unanswered (%v), want %v", stream, err, want)
		case answered && ackCode(ack[0]) != want:
			t.Fatalf("stream %x was answered %v, want %v", stream, ackCode(ack[0]), want)
		}

		next := 2 // the inbound pair the stream left pending
		for s := 0; s < fuzzN; s++ {
			tr := r.st[s][fuzzPort]
			if tr == nil {
				continue
			}
			if tr.applied != (s == src) {
				t.Fatalf("stream %x left %d→%d applied=%v", stream, s, fuzzPort, tr.applied)
			}
			if !tr.applied {
				next = s
			}
		}
		if err := r.attempt(0, 0, r.st[next][fuzzPort], 5*time.Second); err != nil {
			t.Fatalf("after stream %x the port refused an honest transfer %d→%d: %v", stream, next, fuzzPort, err)
		}
		wantDelivered := [][2]int{{next, fuzzPort}}
		if src >= 0 {
			wantDelivered = [][2]int{{src, fuzzPort}, {next, fuzzPort}}
		}
		mu.Lock()
		defer mu.Unlock()
		if !slices.Equal(delivered, wantDelivered) {
			t.Fatalf("stream %x delivered %v, want %v", stream, delivered, wantDelivered)
		}
	})
}

// tamperTransport rewrites the header of the first attempt one pair
// makes and keeps the ack code that attempt was answered with.
type tamperTransport struct {
	Transport
	src, dst int
	edit     func(h *frameHeader)
	spent    atomic.Bool
	ack      atomic.Int32
}

func (k *tamperTransport) Dial(src, dst int) (net.Conn, error) {
	c, err := k.Transport.Dial(src, dst)
	if err != nil || src != k.src || dst != k.dst || !k.spent.CompareAndSwap(false, true) {
		return c, err
	}
	return &tamperConn{Conn: c, k: k}, nil
}

type tamperConn struct {
	net.Conn
	k          *tamperTransport
	headerSent bool
}

// Write edits the header, the attempt's first write, and swallows the
// payload after it: a receiver that refuses at the header never reads
// the payload, which would otherwise hold the pipe until the deadline.
func (c *tamperConn) Write(p []byte) (int, error) {
	if c.headerSent {
		return len(p), nil
	}
	c.headerSent = true
	if len(p) != frameLen {
		return 0, errors.New("tamper: first write is not a header")
	}
	h, _ := parseFrame((*[frameLen]byte)(p))
	c.k.edit(&h)
	var b [frameLen]byte
	h.put(&b)
	return c.Conn.Write(b[:])
}

func (c *tamperConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.k.ack.Store(int32(p[0]))
	}
	return n, err
}

// TestExecRefusals pins the four header refusals: an attempt whose
// header names another exchange, another destination, an impossible
// source, or a size the matrix does not hold is answered refused, is
// not applied, has its reason marked on the exchange's trace, and the
// sender's retry delivers the pair exactly once.
func TestExecRefusals(t *testing.T) {
	const n, src, dst = 5, 1, 2
	cases := []struct {
		name   string
		edit   func(h *frameHeader)
		reason string
	}{
		{"foreign exchange", func(h *frameHeader) { h.xid++ }, "exchange"},
		{"misrouted", func(h *frameHeader) { h.dst = dst + 1 }, "misrouted"},
		{"src out of range", func(h *frameHeader) { h.src = n }, "invalid src"},
		{"src is dst", func(h *frameHeader) { h.src = dst }, "invalid src"},
		{"size differs", func(h *frameHeader) { h.size++ }, "size"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, m, sizes := testProblem(t, n)
			mem, err := NewMem(n)
			if err != nil {
				t.Fatal(err)
			}
			tr := &tamperTransport{Transport: mem, src: src, dst: dst, edit: tc.edit}
			s := newSink(t)
			s.want = DefaultPayload
			cfg := fastCfg()
			cfg.Deliver = s.deliver
			ex, err := New(tr, cfg)
			if err != nil {
				t.Fatal(err)
			}
			rt := obs.NewReqTrace(obs.NewTraceID(), nil)
			rep, err := ex.Run(obs.WithReqTrace(context.Background(), rt), res, m, sizes)
			if err != nil {
				t.Fatal(err)
			}
			if got := ackCode(tr.ack.Load()); got != ackRefused {
				t.Fatalf("tampered attempt was answered %v, want %v", got, ackRefused)
			}
			if rep.Retries < 1 || rep.DupSuppressed != 0 || rep.DeliveredBytes != sizes.TotalBytes() {
				t.Fatalf("refusal was applied or not retried:\n%s", rep)
			}
			if got, ok := s.got(src, dst); !ok || got != sizes.At(src, dst) {
				t.Fatalf("pair %d→%d delivered %d bytes (present=%v), want %d once", src, dst, got, ok, sizes.At(src, dst))
			}
			var marks []string
			for _, sp := range rt.Spans() {
				if sp.Name == ackRefused.String() {
					marks = append(marks, sp.Note)
				}
			}
			if len(marks) != 1 || !strings.Contains(marks[0], tc.reason) {
				t.Fatalf("refusal marks %q, want one naming %q", marks, tc.reason)
			}
		})
	}
}
