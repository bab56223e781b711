package serve

import (
	"context"
	"sync"
	"testing"
	"time"

	"hetsched/internal/comm"
	"hetsched/internal/directory"
	"hetsched/internal/leakcheck"
)

// TestDaemonShutdownLeaksNoGoroutines: a daemon that served real
// requests must join its whole worker pool on Shutdown.
func TestDaemonShutdownLeaksNoGoroutines(t *testing.T) {
	leakcheck.Check(t, func() {
		c, err := comm.New(4, okSource(4), comm.Config{})
		if err != nil {
			t.Fatal(err)
		}
		d, err := NewDaemon(c, func() (uint64, error) { return 1, nil }, Config{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			resp := d.Plan(context.Background(), directory.PlanRequest{
				ID: uint64(i), P: 4, Kind: directory.PatternUniform, Bytes: 512})
			if !resp.OK {
				t.Errorf("request %d not served: %+v", i, resp)
			}
		}
		d.Shutdown()
	})
}

// TestDaemonShutdownUnderLoadLeaksNoGoroutines drains a daemon while
// concurrent clients are still submitting: every worker and every
// client goroutine must be joined, whatever response shape each
// request got (served, draining, shed).
func TestDaemonShutdownUnderLoadLeaksNoGoroutines(t *testing.T) {
	leakcheck.Check(t, func() {
		c, err := comm.New(4, okSource(4), comm.Config{})
		if err != nil {
			t.Fatal(err)
		}
		d, err := NewDaemon(c, nil, Config{Workers: 2, Queue: 4, DrainTimeout: 200 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for i := 0; i < 16; i++ {
			wg.Add(1)
			go func(id uint64) {
				defer wg.Done()
				d.Plan(context.Background(), directory.PlanRequest{
					ID: id, P: 4, Kind: directory.PatternUniform, Bytes: 256})
			}(uint64(i))
		}
		d.Shutdown()
		wg.Wait()
	})
}
