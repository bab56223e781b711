// Package wire is the golden fixture: exactly two lockio findings on
// known lines, used to lock the text format and the CLI's exit codes,
// and to check that -checks runs only the named checkers.
package wire

import (
	"net"
	"sync"
)

// Conn writes and closes under its lock.
type Conn struct {
	mu sync.Mutex
	c  net.Conn
}

// F blocks the mutex on the network twice.
func (c *Conn) F(b []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.c.Write(b)
	c.c.Close()
}
