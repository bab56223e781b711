package comm

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hetsched/internal/model"
	"hetsched/internal/netmodel"
)

// TestAllToAllHealthReportsPerCallRung: with a source that alternates
// between healthy and failing, every AllToAllHealthCtx call reports the
// rung that served its own exchange — fresh plans never claim a
// degraded rung and vice versa, even with many concurrent sharers of
// one communicator. Health() after the fact cannot make that promise;
// this seam is what the serving daemon tags responses with.
func TestAllToAllHealthReportsPerCallRung(t *testing.T) {
	perf := netmodel.NewPerf(4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if i != j {
				perf.Set(i, j, netmodel.PairPerf{Latency: 1e-3, Bandwidth: 1e6})
			}
		}
	}
	var calls atomic.Int64
	source := func() (*netmodel.Perf, error) {
		if calls.Add(1)%2 == 0 {
			return nil, fmt.Errorf("injected outage")
		}
		return perf.Clone(), nil
	}
	// Every clock read is two stale bounds later than the last, so the
	// cached table is always too old: failures fall straight to
	// degraded and the expected tag is unambiguous.
	var ticks atomic.Int64
	clock := func() time.Time {
		return time.Unix(0, 0).Add(time.Duration(ticks.Add(1)) * 2 * DefaultStaleBound)
	}
	c, err := New(4, source, Config{Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	sizes := model.UniformSizes(4, 1024)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 8; k++ {
				r, h, err := c.AllToAllHealthCtx(context.Background(), sizes)
				if err != nil {
					errs <- err
					return
				}
				degradedTag := len(r.Algorithm) > len("+degraded") &&
					r.Algorithm[len(r.Algorithm)-len("+degraded"):] == "+degraded"
				if (h == HealthDegraded) != degradedTag {
					errs <- fmt.Errorf("health %v does not match algorithm tag %q", h, r.Algorithm)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.ServedFresh == 0 || st.ServedDegraded == 0 {
		t.Fatalf("expected both rungs exercised, got %+v", st)
	}
}
