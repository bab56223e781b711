// Package g is the golden fixture: exactly two findings on known
// lines, used to lock the text format and the CLI's exit codes, and
// to check that -checks runs only the named checkers.
package g

import "errors"

func fail() error { return errors.New("x") }

// F discards twice.
func F() {
	fail()
	_ = fail()
}
