// Package ed is a fixture for the errdiscard checker.
package ed

import (
	"errors"
	"fmt"
	"hash"
	"os"
	"strings"
)

func work() error { return errors.New("boom") }

// Bare discards the error by never binding it.
func Bare() {
	work() // want errdiscard "result error of work is silently discarded"
}

// Blank discards it with the blank identifier.
func Blank() {
	_ = work() // want errdiscard "error from work discarded with _"
}

// Tuple drops the error slot of a multi-value call.
func Tuple(s string) int {
	n, _ := fmt.Sscan(s, new(int)) // want errdiscard "error from fmt.Sscan discarded with _"
	return n
}

// Deferred cleanup is exempt by convention.
func Deferred(f *os.File) {
	defer f.Close()
}

// Async error handling is the goroutine's business, not this
// statement's.
func Async() {
	go work()
}

// Report uses the exempt sinks: fmt printing, in-memory builders and
// hashes.
func Report(sb *strings.Builder, h hash.Hash) string {
	fmt.Println("ok")
	sb.WriteString("ok")
	h.Write([]byte("ok"))
	return sb.String()
}

// Annotated discards on purpose and says why.
func Annotated() {
	work() //hetvet:ignore errdiscard this fixture genuinely does not care
}

// Checked is the good path.
func Checked() error {
	if err := work(); err != nil {
		return err
	}
	return nil
}

// NoError calls something that cannot fail.
func NoError() int {
	return len("ok")
}
