package exec

import (
	"io"
	"net"
	"os"
	"sync"
	"time"
)

// memBufLen is the room each direction of a memPipe buffers, as a
// socket's send buffer would: enough for a frame header and an ack, so
// neither waits for its reader. A write that does not fit is handed to
// the reader whole and copied once, straight into the reader's buffer.
const memBufLen = 64

// memPipe is one in-process connection: both ends and both directions
// under one lock, allocated once per Mem.Dial. Every operation loops:
// under the lock it re-examines the pipe and either finishes or picks
// the channel to sleep on; it sleeps with the lock released. A wake-up
// is only a reason to look again, so a stale token costs one pass.
type memPipe struct {
	mu  sync.Mutex // guards end and dir — never held while sleeping
	end [2]memConn // end[0] is the dial half, end[1] the accept half
	dir [2]memDir  // dir[i] carries what end[i] writes

	// killed[0], killed[1] and done are the transport's channels for
	// the pipe's src, its dst, and the transport itself; any of them
	// closed severs the pipe.
	killed [2]<-chan struct{}
	done   <-chan struct{}
}

// memDir is one direction of a memPipe.
type memDir struct {
	buf  [memBufLen]byte
	r, w int    // buf[r:w] is buffered, unread
	big  []byte // the unread rest of a write handed over whole
}

// memConn is one end of a memPipe.
type memConn struct {
	p      *memPipe
	id     int
	closed bool
	rd, wr memSide
}

// memSide is one end's read or write side. Calls on a side run one at a
// time, as net.Conn's contract requires: the caller holding busy sleeps
// on wake, the callers queued behind it on queue. Both channels are made
// the first time someone sleeps on them.
type memSide struct {
	busy        bool
	dl          time.Time
	wake, queue chan struct{}
}

// memTimers holds stopped, drained timers, so an operation that sleeps
// under a deadline reuses one with Reset instead of allocating.
var memTimers sync.Pool

func newMemPipe(killedSrc, killedDst, done <-chan struct{}) *memPipe {
	p := &memPipe{killed: [2]<-chan struct{}{killedSrc, killedDst}, done: done}
	p.end[0] = memConn{p: p, id: 0}
	p.end[1] = memConn{p: p, id: 1}
	return p
}

// severed reports whether the pipe's src or dst was killed or the
// transport closed. Single-case selects compile to a lock-free check
// of an open channel.
func (p *memPipe) severed() bool {
	for _, ch := range [...]<-chan struct{}{p.killed[0], p.killed[1], p.done} {
		select {
		case <-ch:
			return true
		default:
		}
	}
	return false
}

// sleep blocks until wake holds a token, the deadline dl passes, or the
// pipe is severed. Its caller does not hold p.mu and looks again.
func (p *memPipe) sleep(wake <-chan struct{}, dl time.Time) {
	var tm *time.Timer
	var fire <-chan time.Time
	if !dl.IsZero() {
		d := dl.Sub(wallClock())
		if d <= 0 {
			return
		}
		if tm, _ = memTimers.Get().(*time.Timer); tm == nil {
			tm = time.NewTimer(d)
		} else {
			tm.Reset(d)
		}
		fire = tm.C
	}
	select {
	case <-wake:
	case <-fire:
	case <-p.killed[0]:
	case <-p.killed[1]:
	case <-p.done:
	}
	if tm != nil {
		if !tm.Stop() {
			select {
			case <-tm.C:
			default:
			}
		}
		memTimers.Put(tm)
	}
}

// signal leaves a token for ch's sleeper without blocking. A nil ch has
// never had a sleeper.
func signal(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// claim makes the caller the side's owner if no one is. It reports
// whether the caller owns the side.
func (s *memSide) claim(owner bool) bool {
	if !owner && !s.busy {
		s.busy, owner = true, true
	}
	return owner
}

// release hands the side to the next queued caller.
func (s *memSide) release() {
	s.busy = false
	signal(s.queue)
}

// sleeper returns the channel the caller sleeps on, making it on first
// use: the owner waits for the pipe to change, the others for the side.
func (s *memSide) sleeper(owner bool) chan struct{} {
	ch := &s.queue
	if owner {
		ch = &s.wake
	}
	if *ch == nil {
		*ch = make(chan struct{}, 1)
	}
	return *ch
}

// setDeadline stores dl and wakes the side's sleepers to re-arm.
func (s *memSide) setDeadline(dl time.Time) {
	s.dl = dl
	signal(s.wake)
	signal(s.queue)
}

// push buffers b whole if it fits and reports whether it did.
func (d *memDir) push(b []byte) bool {
	if len(b) > len(d.buf)-(d.w-d.r) {
		return false
	}
	if d.w+len(b) > len(d.buf) {
		d.w, d.r = copy(d.buf[:], d.buf[d.r:d.w]), 0
	}
	d.w += copy(d.buf[d.w:], b)
	return true
}

// read moves buffered bytes, then (when handed is set) the handed
// write's, into b. drained reports that it took the handed write's last
// byte, which is what that write's owner waits for.
func (d *memDir) read(b []byte, handed bool) (n int, drained bool) {
	n = copy(b, d.buf[d.r:d.w])
	if d.r += n; d.r == d.w {
		d.r, d.w = 0, 0
	}
	if handed && n < len(b) && len(d.big) > 0 {
		m := copy(b[n:], d.big)
		d.big = d.big[m:]
		n += m
		drained = len(d.big) == 0
	}
	return n, drained
}

// check returns the error an operation under deadline dl fails with
// now, if any. Called with p.mu held.
func (c *memConn) check(dl time.Time) error {
	switch {
	case c.closed, c.p.severed():
		return net.ErrClosed
	case !dl.IsZero() && !wallClock().Before(dl):
		return os.ErrDeadlineExceeded
	}
	return nil
}

// Read drains what the peer buffered, then what it handed over, and
// returns io.EOF once the peer has closed and nothing is left.
func (c *memConn) Read(b []byte) (int, error) {
	p, s := c.p, &c.rd
	in, peer := &p.dir[1-c.id], &p.end[1-c.id]
	owner := false
	for {
		p.mu.Lock()
		owner = s.claim(owner)
		n, err := 0, c.check(s.dl)
		if err == nil && owner {
			var drained bool
			// A write still handed over when its end closed failed; its
			// bytes are not the peer's to read.
			n, drained = in.read(b, !peer.closed)
			if drained {
				signal(peer.wr.wake)
			}
			if n == 0 && len(b) > 0 && peer.closed {
				err = io.EOF
			}
		}
		if err != nil || (owner && (n > 0 || len(b) == 0)) {
			if owner {
				s.release()
			}
			p.mu.Unlock()
			return n, err
		}
		wake, dl := s.sleeper(owner), s.dl
		p.mu.Unlock()
		p.sleep(wake, dl)
	}
}

// Write buffers b if it fits and returns at once. Otherwise it hands b
// to the reader and returns when the reader has taken all of it.
func (c *memConn) Write(b []byte) (int, error) {
	p, s := c.p, &c.wr
	out, peer := &p.dir[c.id], &p.end[1-c.id]
	owner, handed := false, false
	for {
		p.mu.Lock()
		owner = s.claim(owner)
		// A handed write the reader has taken whole is done, whatever
		// happened since.
		n, done := 0, handed && len(out.big) == 0
		var err error
		if !done {
			if err = c.check(s.dl); err == nil && peer.closed {
				err = io.ErrClosedPipe
			}
		}
		switch {
		case done:
		case err != nil:
			if handed {
				n, out.big = len(b)-len(out.big), nil
			}
		case !owner, handed: // sleep: for the side, or for the reader to take b
		case out.push(b):
			done = true
			signal(peer.rd.wake)
		default:
			out.big, handed = b, true
			signal(peer.rd.wake)
		}
		if done {
			n, out.big = len(b), nil
		}
		if err != nil || done {
			if owner {
				s.release()
			}
			p.mu.Unlock()
			return n, err
		}
		wake, dl := s.sleeper(owner), s.dl
		p.mu.Unlock()
		p.sleep(wake, dl)
	}
}

// Close closes this end. What it wrote stays readable by the peer; a
// second Close fails, as a socket's does.
func (c *memConn) Close() error {
	p := c.p
	peer := &p.end[1-c.id]
	p.mu.Lock()
	defer p.mu.Unlock()
	if c.closed {
		return net.ErrClosed
	}
	c.closed = true
	for _, ch := range [...]chan struct{}{c.rd.wake, c.rd.queue, c.wr.wake, c.wr.queue, peer.rd.wake, peer.wr.wake} {
		signal(ch)
	}
	return nil
}

// setDeadlines applies dl to the read side, the write side, or both.
func (c *memConn) setDeadlines(dl time.Time, read, write bool) error {
	p := c.p
	p.mu.Lock()
	defer p.mu.Unlock()
	if c.closed {
		return net.ErrClosed
	}
	if read {
		c.rd.setDeadline(dl)
	}
	if write {
		c.wr.setDeadline(dl)
	}
	return nil
}

func (c *memConn) SetDeadline(t time.Time) error      { return c.setDeadlines(t, true, true) }
func (c *memConn) SetReadDeadline(t time.Time) error  { return c.setDeadlines(t, true, false) }
func (c *memConn) SetWriteDeadline(t time.Time) error { return c.setDeadlines(t, false, true) }
func (c *memConn) LocalAddr() net.Addr                { return memAddr{} }
func (c *memConn) RemoteAddr() net.Addr               { return memAddr{} }

// memAddr is both ends' address: an in-process pipe has no other.
type memAddr struct{}

func (memAddr) Network() string { return "mem" }
func (memAddr) String() string  { return "mem" }
