package main

import (
	"errors"
	"testing"
)

// TestShutdownReportsEveryStep: a failing step neither hides the
// others' errors nor skips them — the drain runs first, the feeder is
// stopped and awaited after it, and the metrics endpoint is stopped
// last, and the result carries each failure.
func TestShutdownReportsEveryStep(t *testing.T) {
	errDrain, errFeeder, errMetrics := errors.New("drain"), errors.New("feeder"), errors.New("metrics")
	var order []string
	stop := make(chan struct{})
	feederDone := make(chan error, 1)
	drain := func() error {
		order = append(order, "drain")
		return errDrain
	}
	stopMetrics := func() error {
		select {
		case <-stop:
		default:
			t.Error("metrics stopped before the feeder was told to stop")
		}
		order = append(order, "metrics")
		return errMetrics
	}
	feederDone <- errFeeder
	err := shutdown(drain, stop, feederDone, stopMetrics)
	for _, want := range []error{errDrain, errFeeder, errMetrics} {
		if !errors.Is(err, want) {
			t.Errorf("shutdown = %v, missing %v", err, want)
		}
	}
	if len(order) != 2 || order[0] != "drain" || order[1] != "metrics" {
		t.Errorf("steps ran as %v, want drain then metrics", order)
	}

	// Only the metrics stop fails: that error alone comes back.
	feederDone <- nil
	err = shutdown(func() error { return nil }, make(chan struct{}), feederDone, func() error { return errMetrics })
	if !errors.Is(err, errMetrics) || errors.Is(err, errDrain) {
		t.Errorf("shutdown with a failing metrics stop = %v, want only %v", err, errMetrics)
	}
	// Without a metrics endpoint and with nothing failing, it is clean.
	feederDone <- nil
	if err := shutdown(func() error { return nil }, make(chan struct{}), feederDone, nil); err != nil {
		t.Errorf("clean shutdown = %v", err)
	}
}
