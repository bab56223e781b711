package comm

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"hetsched/internal/calib"
	"hetsched/internal/exec"
	"hetsched/internal/model"
	"hetsched/internal/netmodel"
)

// TestExecuteEndToEnd plans through the communicator and moves real
// bytes over the in-memory transport: every pair's payload must land
// exactly once and the report must account for every byte.
func TestExecuteEndToEnd(t *testing.T) {
	c := newComm(t, netmodel.Gusto(), Config{})
	n := 5
	tr, err := exec.NewMem(n)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	sizes := model.UniformSizes(n, 512)

	var mu sync.Mutex
	got := map[[2]int]int64{}
	rep, r, err := c.ExecuteCtx(context.Background(), tr, sizes, exec.Config{
		MinDeadline: 250_000_000, // 250ms: scheduling noise must not kill transfers
		Deliver: func(src, dst int, payload []byte) {
			mu.Lock()
			got[[2]int{src, dst}] += int64(len(payload))
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if r == nil || r.Algorithm == "" {
		t.Fatal("no tagged plan returned")
	}
	if !rep.Accounted() {
		t.Fatalf("report does not account for all bytes: %s", rep)
	}
	if rep.AbandonedBytes != 0 || len(rep.Dead) != 0 {
		t.Fatalf("fault-free exchange lost bytes: %s", rep)
	}
	mu.Lock()
	defer mu.Unlock()
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if src == dst {
				continue
			}
			if got[[2]int{src, dst}] != 512 {
				t.Fatalf("pair (%d,%d) delivered %d bytes, want 512",
					src, dst, got[[2]int{src, dst}])
			}
		}
	}
	if c.Stats().Plans == 0 {
		t.Fatal("ExecuteCtx did not count a plan")
	}
}

// TestExecuteShapeMismatch: the sizes matrix must match the
// communicator's node count before any bytes move.
func TestExecuteShapeMismatch(t *testing.T) {
	c := newComm(t, netmodel.Gusto(), Config{})
	tr, err := exec.NewMem(5)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if _, _, err := c.ExecuteCtx(context.Background(), tr, model.UniformSizes(4, 1), exec.Config{}); err == nil {
		t.Fatal("size mismatch accepted")
	}
}

// TestExecuteFeedsCalibSink closes the loop Config.CalibSink stands
// for: every ExecuteCtx hands its measured transfers to the calibrator,
// and the estimates it comes to trust are pushed to the sink, counted
// as pushes, and as push errors when the sink fails.
func TestExecuteFeedsCalibSink(t *testing.T) {
	const n, exchanges = 4, 4
	table := flatPerf(n, 1e-3, 2e6)
	for _, sinkErr := range []error{nil, errors.New("directory down")} {
		cal, err := calib.New(table, calib.Config{})
		if err != nil {
			t.Fatal(err)
		}
		var pushed [][]calib.Update
		sink := func(u []calib.Update) error {
			pushed = append(pushed, u)
			return sinkErr
		}
		c := newComm(t, table, Config{Calibrator: cal, CalibSink: sink})
		for k := 0; k < exchanges; k++ {
			tr, err := exec.NewMem(n)
			if err != nil {
				t.Fatal(err)
			}
			// A generous deadline: a retried transfer is no sample.
			rep, _, err := c.ExecuteCtx(context.Background(), tr, model.UniformSizes(n, 1<<12), exec.Config{MinDeadline: 2 * time.Second})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Retries != 0 || rep.AbandonedBytes != 0 {
				t.Fatalf("exchange %d was not clean: %s", k, rep)
			}
		}
		st := c.Stats()
		wantErrs := 0
		if sinkErr != nil {
			wantErrs = len(pushed)
		}
		if len(pushed) == 0 || st.CalibBatches != exchanges || st.CalibPushes != len(pushed) || st.CalibPushErrors != wantErrs {
			t.Errorf("sink error %v: %d pushes seen, stats %+v", sinkErr, len(pushed), st)
		}
		threshold := cal.Summarize().TrustThreshold
		for _, batch := range pushed {
			for _, u := range batch {
				if u.Confidence < threshold {
					t.Errorf("pushed an untrusted estimate: %+v (threshold %.2f)", u, threshold)
				}
			}
		}
	}
}
