package exec

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"hetsched/internal/calib"
	"hetsched/internal/faults"
	"hetsched/internal/model"
	"hetsched/internal/netmodel"
	"hetsched/internal/obs"
	"hetsched/internal/sched"
)

// testProblem builds a small heterogeneous instance: a cost matrix
// with per-pair variation, a size matrix with distinct byte counts,
// and an open shop plan for them.
func testProblem(t *testing.T, n int) (*sched.Result, *model.Matrix, *model.Sizes) {
	t.Helper()
	m := model.NewMatrix(n)
	sizes := model.NewSizes(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			m.Set(i, j, 0.0001*float64(1+(i+2*j)%4))
			sizes.Set(i, j, int64(64*(1+(i*n+j)%5)))
		}
	}
	res, err := sched.NewOpenShop().Schedule(m)
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	return res, m, sizes
}

// sink records deliveries with full concurrency checking: a pair
// delivered twice fails the test immediately.
type sink struct {
	t    *testing.T
	want PayloadFunc // when set, every delivered payload must equal what it defines
	mu   sync.Mutex
	by   map[[2]int]int64
}

func newSink(t *testing.T) *sink { return &sink{t: t, by: map[[2]int]int64{}} }

func (s *sink) deliver(src, dst int, payload []byte) {
	if s.want != nil && !bytes.Equal(payload, s.want(src, dst, int64(len(payload)))) {
		s.t.Errorf("pair %d→%d delivered bytes the generator does not define", src, dst)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	key := [2]int{src, dst}
	if _, dup := s.by[key]; dup {
		s.t.Errorf("pair %d→%d delivered twice", src, dst)
	}
	s.by[key] = int64(len(payload))
}

func (s *sink) got(src, dst int) (int64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sz, ok := s.by[[2]int{src, dst}]
	return sz, ok
}

func (s *sink) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.by)
}

// fastCfg keeps retry/deadline waits test-sized.
func fastCfg() Config {
	return Config{
		MinDeadline: 250 * time.Millisecond,
		Backoff:     time.Millisecond,
	}
}

func TestExecMemDeliversEverything(t *testing.T) {
	const n = 5
	res, m, sizes := testProblem(t, n)
	tr, err := NewMem(n)
	if err != nil {
		t.Fatal(err)
	}
	s := newSink(t)
	cfg := fastCfg()
	cfg.Deliver = s.deliver
	ex, err := New(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ex.Run(context.Background(), res, m, sizes)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Accounted() {
		t.Fatalf("bytes not partitioned: %+v", rep)
	}
	if rep.DeliveredBytes != sizes.TotalBytes() || rep.AbandonedBytes != 0 {
		t.Fatalf("delivered %d of %d, abandoned %d", rep.DeliveredBytes, sizes.TotalBytes(), rep.AbandonedBytes)
	}
	if rep.Rounds != 1 || rep.Replans != 0 || len(rep.Dead) != 0 {
		t.Fatalf("clean run reported rounds=%d replans=%d dead=%v", rep.Rounds, rep.Replans, rep.Dead)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			if sz, ok := s.got(i, j); !ok || sz != sizes.At(i, j) {
				t.Fatalf("pair %d→%d: got %d bytes (present=%v), want %d", i, j, sz, ok, sizes.At(i, j))
			}
		}
	}
	if rep.Wall <= 0 {
		t.Fatalf("non-positive wall clock %v", rep.Wall)
	}
	if rep.Fit != nil {
		t.Fatalf("exchange without Config.Samples reported a pair fit: %+v", rep.Fit)
	}
}

func TestExecTCPDeliversEverything(t *testing.T) {
	const n = 4
	res, m, sizes := testProblem(t, n)
	tr, err := NewTCP(n)
	if err != nil {
		t.Fatal(err)
	}
	s := newSink(t)
	cfg := fastCfg()
	cfg.Deliver = s.deliver
	ex, err := New(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ex.Run(context.Background(), res, m, sizes)
	if err != nil {
		t.Fatal(err)
	}
	if rep.DeliveredBytes != sizes.TotalBytes() || rep.AbandonedBytes != 0 {
		t.Fatalf("delivered %d of %d, abandoned %d", rep.DeliveredBytes, sizes.TotalBytes(), rep.AbandonedBytes)
	}
	if s.count() != n*(n-1) {
		t.Fatalf("sink saw %d pairs, want %d", s.count(), n*(n-1))
	}
}

func TestExecZeroSizeTransfers(t *testing.T) {
	const n = 4
	m := model.NewMatrix(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				m.Set(i, j, 0.0001)
			}
		}
	}
	res, err := sched.NewOpenShop().Schedule(m)
	if err != nil {
		t.Fatal(err)
	}
	sizes := model.NewSizes(n) // all zero
	tr, err := NewMem(n)
	if err != nil {
		t.Fatal(err)
	}
	s := newSink(t)
	cfg := fastCfg()
	cfg.Deliver = s.deliver
	ex, err := New(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ex.Run(context.Background(), res, m, sizes)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalBytes != 0 || rep.AbandonedBytes != 0 || len(rep.Dead) != 0 {
		t.Fatalf("zero-size exchange misreported: %+v", rep)
	}
	// Zero-byte transfers still complete the protocol exactly once each.
	if rep.DeliveredTransfers != n*(n-1) || s.count() != n*(n-1) {
		t.Fatalf("completed %d transfers, sink %d, want %d", rep.DeliveredTransfers, s.count(), n*(n-1))
	}
}

func TestExecValidation(t *testing.T) {
	if _, err := New(nil, Config{}); err == nil {
		t.Fatal("nil transport accepted")
	}
	tr, err := NewMem(3)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if _, err := New(tr, Config{MaxRetries: -1}); err == nil {
		t.Fatal("negative retries accepted")
	}
	if _, err := New(tr, Config{Slack: -1}); err == nil {
		t.Fatal("negative slack accepted")
	}
	ex, err := New(tr, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ex.Run(context.Background(), nil, nil, nil); err == nil {
		t.Fatal("nil plan accepted")
	}
	res, m, sizes := testProblem(t, 4) // transport has 3 nodes
	if _, err := ex.Run(context.Background(), res, m, sizes); err == nil {
		t.Fatal("shape mismatch accepted")
	}
}

func TestExecLatencyDelaysStillDeliverEverything(t *testing.T) {
	const n = 4
	res, m, sizes := testProblem(t, n)
	tr, err := NewMem(n)
	if err != nil {
		t.Fatal(err)
	}
	inj := faults.NewLatencyInjector(faults.LatencyConfig{
		Seed:      7,
		DelayProb: 0.5,
		Delay:     time.Microsecond,
		Jitter:    time.Microsecond,
	})
	tr.SetConnWrapper(inj.Wrap)
	s := newSink(t)
	cfg := fastCfg()
	cfg.Deliver = s.deliver
	ex, err := New(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ex.Run(context.Background(), res, m, sizes)
	if err != nil {
		t.Fatal(err)
	}
	if rep.DeliveredBytes+rep.ReroutedBytes != sizes.TotalBytes() {
		t.Fatalf("lost bytes under latency: %s", rep)
	}
	if inj.Counts().Delays == 0 {
		t.Fatal("injector never delayed")
	}
}

func TestExecStalledReceiverDeclaredDead(t *testing.T) {
	const n = 4
	res, m, sizes := testProblem(t, n)
	tr, err := NewMem(n)
	if err != nil {
		t.Fatal(err)
	}
	// Every receive-side operation hard-stalls: all inbound traffic is
	// silent, so every destination is eventually declared dead.
	inj := faults.NewLatencyInjector(faults.LatencyConfig{Seed: 3, StallProb: 1})
	tr.SetConnWrapper(inj.Wrap)
	cfg := Config{
		MinDeadline: 20 * time.Millisecond,
		MaxRetries:  1,
		Backoff:     time.Millisecond,
	}
	ex, err := New(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ex.Run(context.Background(), res, m, sizes)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Dead) == 0 {
		t.Fatalf("no node declared dead under total stall: %s", rep)
	}
	if rep.DeliveredBytes != 0 || rep.ReroutedBytes != 0 {
		t.Fatalf("bytes delivered through a total stall: %s", rep)
	}
	if !rep.Accounted() {
		t.Fatalf("bytes not partitioned: %s", rep)
	}
	if rep.Retries == 0 {
		t.Fatal("stalls never retried")
	}
	for _, d := range rep.Dests {
		if d.Abandoned > 0 && len(d.Reasons) == 0 {
			t.Fatalf("abandoned bytes at P%d carry no reason", d.Dst)
		}
	}
}

func TestExecMetricsRecorded(t *testing.T) {
	const n = 4
	res, m, sizes := testProblem(t, n)
	tr, err := NewMem(n)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.New()
	cfg := fastCfg()
	cfg.Metrics = reg
	ex, err := New(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ex.Run(context.Background(), res, m, sizes); err != nil {
		t.Fatal(err)
	}
	delivered := reg.Counter(MetricExecTransfers, "", obs.L("outcome", "delivered")).Value()
	if delivered != uint64(n*(n-1)) {
		t.Fatalf("delivered transfer counter %d, want %d", delivered, n*(n-1))
	}
	attempts := reg.Counter(MetricExecAttempts, "").Value()
	if attempts < uint64(n*(n-1)) {
		t.Fatalf("attempt counter %d below transfer count", attempts)
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "hetsched_exec_bytes_total") {
		t.Fatal("exec bytes family missing from scrape")
	}
}

// TestExecPairFitNamesSlowedPair: with measurement armed the report
// sets each transfer's wall clock beside the matrix's time for its
// pair, so one emulated slow link is the reported worst pair and the
// median stays with the healthy ones.
func TestExecPairFitNamesSlowedPair(t *testing.T) {
	const n, slowSrc, slowDst = 4, 2, 3
	const delay = 30 * time.Millisecond
	res, m, sizes := testProblem(t, n)
	m.Set(0, 1, 0) // a pair the model says nothing about is left out
	tr, err := NewMem(n)
	if err != nil {
		t.Fatal(err)
	}
	inj, err := faults.NewPairDelayInjector(faults.PairDelayConfig{
		Lookup: func(src, dst int) netmodel.PairPerf {
			if src == slowSrc && dst == slowDst {
				return netmodel.PairPerf{Latency: delay.Seconds()}
			}
			return netmodel.PairPerf{}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	tr.SetPairWrapper(inj.WrapPair)
	cfg := fastCfg()
	cfg.Samples = func([]calib.Sample) {}
	ex, err := New(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ex.Run(context.Background(), res, m, sizes)
	if err != nil {
		t.Fatal(err)
	}
	fit := rep.Fit
	if fit == nil {
		t.Fatalf("measurement armed but no pair fit reported:\n%s", rep)
	}
	if fit.Pairs != n*(n-1)-1 {
		t.Fatalf("fit covers %d pairs, want %d (all but the zero-model pair)", fit.Pairs, n*(n-1)-1)
	}
	w := fit.Worst
	if w.Src != slowSrc || w.Dst != slowDst {
		t.Fatalf("worst pair %d→%d (%.3g s measured, %.3g s modeled), want the slowed %d→%d",
			w.Src, w.Dst, w.Measured, w.Modeled, slowSrc, slowDst)
	}
	if w.Measured < delay.Seconds() || w.Modeled != m.At(slowSrc, slowDst) {
		t.Fatalf("worst pair measured %.3g s, modeled %.3g s; want at least %.3g s against %.3g s",
			w.Measured, w.Modeled, delay.Seconds(), m.At(slowSrc, slowDst))
	}
	if !(fit.MedianRatio > 0 && fit.MedianRatio < w.Ratio()) {
		t.Fatalf("median ratio %.3g not below the worst pair's %.3g", fit.MedianRatio, w.Ratio())
	}
}
