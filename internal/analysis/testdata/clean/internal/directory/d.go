// Package directory is the finding-free fixture for the lockio
// checker: locks guard bookkeeping only, network I/O happens outside
// them, and a deliberate exception carries a reasoned waiver.
package directory

import (
	"net"
	"sync"
)

// Pool snapshots under its lock and does network I/O outside it.
type Pool struct {
	mu   sync.Mutex
	conn net.Conn
	ch   chan int
}

// Write snapshots the connection, then writes unlocked.
func (p *Pool) Write(buf []byte) error {
	p.mu.Lock()
	c := p.conn
	p.mu.Unlock()
	_, err := c.Write(buf)
	return err
}

// Notify never parks while holding the lock.
func (p *Pool) Notify(v int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	select {
	case p.ch <- v:
	default:
	}
}

// Close tears the connection down outside the lock and returns the
// error.
func (p *Pool) Close() error {
	p.mu.Lock()
	c := p.conn
	p.conn = nil
	p.mu.Unlock()
	if c == nil {
		return nil
	}
	return c.Close()
}

// Flush is the annotated exception: the waiver names the check and
// says why.
func (p *Pool) Flush(buf []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	//hetvet:ignore lockio the fixture's framing lock serializes whole writes on purpose
	_, err := p.conn.Write(buf)
	return err
}
