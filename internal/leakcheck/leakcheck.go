// Package leakcheck is the runtime goroutine-leak harness for tests:
// it snapshots runtime.NumGoroutine before a scenario, runs it, and
// retry-settles afterwards until the count returns to the baseline or
// a deadline passes. It is the repo's only goroutine-leak gate: each
// package that starts goroutines (serve, exec, wire, experiments) wraps
// its shutdown tests in Check, and obs holds its one serve loop with a
// stack check of its own.
//
// The count-based check is deliberately one-sided: goroutines that
// finish *during* the scenario can mask a leak of equal size, and
// unrelated test goroutines (timers, the race detector's workers)
// can inflate the baseline. The retry-settle loop absorbs the benign
// case — goroutines that have been signalled but not yet descheduled —
// and on failure the full stack dump names the survivors, so a tripped
// check is always diagnosable.
package leakcheck

import (
	"runtime"
	"testing"
	"time"
)

const (
	// settleWait bounds how long Check waits for spawned goroutines to
	// unwind after the scenario returns. Shutdown paths in this repo
	// are all join-based (WaitGroup or lifecycle channel), so anything
	// still running seconds later is leaked, not slow.
	settleWait = 5 * time.Second
	// settleStep is the poll interval while waiting.
	settleStep = 2 * time.Millisecond
)

// Check runs fn and fails t when goroutines spawned inside fn outlive
// it. The scenario must tear down everything it starts (call Close,
// Shutdown, cancel its contexts) before returning; Check only verifies
// that the teardown actually joined the goroutines. Under the race
// detector the settle window doubles — race-instrumented goroutines
// unwind noticeably slower.
func Check(t *testing.T, fn func()) {
	t.Helper()
	before := runtime.NumGoroutine()
	fn()
	wait := settleWait
	if RaceEnabled {
		wait *= 2
	}
	deadline := time.Now().Add(wait)
	var after int
	for {
		after = runtime.NumGoroutine()
		if after <= before {
			return
		}
		if time.Now().After(deadline) {
			break
		}
		runtime.Gosched()
		time.Sleep(settleStep)
	}
	t.Errorf("leakcheck: %d goroutines before scenario, %d still running after %v settle (%d leaked); all stacks:\n%s",
		before, after, wait, after-before, stacks())
}

// stacks renders every live goroutine's stack, for the failure report.
func stacks() string {
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	return string(buf[:n])
}
