package exec

import (
	"context"
	"errors"
	"sync"
	"testing"

	"hetsched/internal/leakcheck"
)

// runExchange performs one full exchange over tr and closes it; the
// surrounding leakcheck.Check verifies the executor joined every
// per-node sender goroutine and the transport teardown left nothing
// behind.
func runExchange(t *testing.T, tr Transport, ctx context.Context, wantErr bool) {
	t.Helper()
	res, m, sizes := testProblem(t, tr.N())
	s := newSink(t)
	cfg := fastCfg()
	cfg.Deliver = s.deliver
	ex, err := New(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = ex.Run(ctx, res, m, sizes)
	if err != nil && !wantErr {
		t.Errorf("run: %v", err)
	}
	if err := tr.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
}

// TestExecMemLeaksNoGoroutines: an exchange over the in-process
// transport joins every goroutine it started.
func TestExecMemLeaksNoGoroutines(t *testing.T) {
	leakcheck.Check(t, func() {
		tr, err := NewMem(5)
		if err != nil {
			t.Fatal(err)
		}
		runExchange(t, tr, context.Background(), false)
	})
}

// TestExecTCPLeaksNoGoroutines runs the same exchange over real
// loopback sockets, where leaked goroutines would pin listeners and
// connections too.
func TestExecTCPLeaksNoGoroutines(t *testing.T) {
	leakcheck.Check(t, func() {
		tr, err := NewTCP(4)
		if err != nil {
			t.Fatal(err)
		}
		runExchange(t, tr, context.Background(), false)
	})
}

// TestExecCancelledRunLeaksNoGoroutines cancels the context before the
// run starts: Run must still join its senders on the error path.
func TestExecCancelledRunLeaksNoGoroutines(t *testing.T) {
	leakcheck.Check(t, func() {
		tr, err := NewMem(4)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		runExchange(t, tr, ctx, true)
	})
}

// TestExecClosedTransportFailsLoudly: a transport carries one exchange.
// A second Run on it used to return a nil error and an all-abandoned
// report after one replan per node; it must fail with ErrTransportClosed,
// having joined every goroutine it started.
func TestExecClosedTransportFailsLoudly(t *testing.T) {
	for name, newTransport := range transportsUnderTest() {
		newTransport := newTransport
		t.Run(name, func(t *testing.T) {
			leakcheck.Check(t, func() {
				tr, err := newTransport(4)
				if err != nil {
					t.Fatal(err)
				}
				res, m, sizes := testProblem(t, 4)
				ex, err := New(tr, fastCfg())
				if err != nil {
					t.Fatal(err)
				}
				if _, err := ex.Run(context.Background(), res, m, sizes); err != nil {
					t.Fatalf("first run: %v", err)
				}
				rep, err := ex.Run(context.Background(), res, m, sizes)
				if !errors.Is(err, ErrTransportClosed) {
					t.Fatalf("second run on a used transport: report %v, error %v, want ErrTransportClosed", rep, err)
				}
				if rep != nil {
					t.Fatalf("second run returned a report beside its error:\n%s", rep)
				}
			})
		})
	}
}

// TestExecTransportClosedMidExchange: the caller closes the transport
// from under a running exchange. Run must notice at the next dial,
// stop replanning, join its goroutines, and say what happened.
func TestExecTransportClosedMidExchange(t *testing.T) {
	for name, newTransport := range transportsUnderTest() {
		newTransport := newTransport
		t.Run(name, func(t *testing.T) {
			leakcheck.Check(t, func() {
				tr, err := newTransport(5)
				if err != nil {
					t.Fatal(err)
				}
				res, m, sizes := testProblem(t, 5)
				var once sync.Once
				cfg := fastCfg()
				cfg.Deliver = func(src, dst int, payload []byte) {
					once.Do(func() {
						if err := tr.Close(); err != nil {
							t.Errorf("close: %v", err)
						}
					})
				}
				ex, err := New(tr, cfg)
				if err != nil {
					t.Fatal(err)
				}
				rep, err := ex.Run(context.Background(), res, m, sizes)
				if !errors.Is(err, ErrTransportClosed) || rep != nil {
					t.Fatalf("run over a transport closed mid-exchange: report %v, error %v, want ErrTransportClosed", rep, err)
				}
			})
		})
	}
}
