package directory

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestResilientBackoffAbortsOnCancel is the regression test for
// context-aware backoff: with the server unreachable and a long
// backoff configured, canceling the caller's context mid-backoff
// returns immediately instead of sleeping out the full interval.
func TestResilientBackoffAbortsOnCancel(t *testing.T) {
	// 127.0.0.1:1 refuses connections instantly, so each attempt fails
	// fast and all elapsed time is backoff.
	r := NewResilientClient("127.0.0.1:1", ResilientConfig{
		DialTimeout: 200 * time.Millisecond,
		Retries:     3,
		BackoffBase: 30 * time.Second, // would dwarf the test timeout if slept
		BackoffMax:  30 * time.Second,
	})
	defer r.Close()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := r.VersionContext(ctx)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("version against an unreachable server succeeded")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error does not wrap context.Canceled: %v", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("cancel took %v to abort a 30s backoff", elapsed)
	}
}

// TestResilientCancelBeforeBackoffSkipsRetries: a context already
// canceled when an attempt fails stops the retry loop before the next
// backoff, even with an injected (non-cancelable) sleep.
func TestResilientCancelBeforeBackoffSkipsRetries(t *testing.T) {
	var slept int
	r := NewResilientClient("127.0.0.1:1", ResilientConfig{
		DialTimeout: 200 * time.Millisecond,
		Retries:     5,
		Sleep:       func(time.Duration) { slept++ },
	})
	defer r.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := r.VersionContext(ctx)
	if err == nil {
		t.Fatal("version against an unreachable server succeeded")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error does not wrap context.Canceled: %v", err)
	}
	if slept != 0 {
		t.Fatalf("retry loop slept %d times after cancellation", slept)
	}
	// The failed attempt must still be reported alongside the
	// cancellation so callers can tell what they gave up on.
	if !errors.Is(err, context.Canceled) || err.Error() == context.Canceled.Error() {
		t.Fatalf("cancellation error lost the underlying failure: %v", err)
	}
}

// TestResilientBackgroundContextUnchanged: the plain methods retain
// their PR 2 behavior — injected sleeps run for every backoff.
func TestResilientBackgroundContextUnchanged(t *testing.T) {
	var slept int
	r := NewResilientClient("127.0.0.1:1", ResilientConfig{
		DialTimeout: 200 * time.Millisecond,
		Retries:     3,
		Sleep:       func(time.Duration) { slept++ },
	})
	defer r.Close()
	if _, err := r.Version(); err == nil {
		t.Fatal("version against an unreachable server succeeded")
	}
	if slept != 2 {
		t.Fatalf("expected 2 backoff sleeps for 3 attempts, got %d", slept)
	}
}
