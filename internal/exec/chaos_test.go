package exec

import (
	"context"
	"errors"
	"math/rand"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hetsched/internal/model"
	"hetsched/internal/sched"
)

// chaosTrial executes one seeded exchange with mid-exchange node kills
// triggered from the delivery stream, then checks the executor's core
// guarantee: every survivor-to-survivor pair is delivered exactly once
// with the right bytes, and the report partitions every byte. A probe
// on the wire checks that the kills never let a node run two sends or
// two receives at once, and that every connection cleared its
// deadline before closing.
func chaosTrial(t *testing.T, seed int64, newTransport func(n int) (Transport, error)) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := 4 + rng.Intn(4) // 4..7
	kills := 1 + rng.Intn(n-2)
	res, m, sizes := testProblem(t, n)
	tr, err := newTransport(n)
	if err != nil {
		t.Fatal(err)
	}
	victims := rng.Perm(n)[:kills]
	total := n * (n - 1)
	triggers := make([]int, kills)
	for i := range triggers {
		triggers[i] = 1 + rng.Intn(total/2)
	}

	s := newSink(t)
	var (
		mu        sync.Mutex
		delivered int
		next      int
	)
	cfg := Config{
		Seed:        seed,
		MinDeadline: 250 * time.Millisecond,
		Backoff:     time.Millisecond,
	}
	cfg.Deliver = func(src, dst int, payload []byte) {
		s.deliver(src, dst, payload)
		mu.Lock()
		delivered++
		kill := -1
		if next < len(victims) && delivered >= triggers[next] {
			kill = victims[next]
			next++
		}
		mu.Unlock()
		if kill >= 0 {
			tr.Kill(kill)
		}
	}
	probe := newProbe(tr)
	ex, err := New(probe, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ex.Run(context.Background(), res, m, sizes)
	if err != nil {
		t.Fatal(err)
	}
	probe.checkPorts(t)
	probe.checkDeadlines(t)

	if !rep.Accounted() {
		t.Fatalf("seed %d: bytes not partitioned:\n%s", seed, rep)
	}
	dead := make([]bool, n)
	for _, d := range rep.Dead {
		dead[d] = true
	}
	if len(rep.Dead) > n-2 {
		t.Fatalf("seed %d: %d dead of %d nodes — fewer than 2 survivors", seed, len(rep.Dead), n)
	}
	var sinkBytes int64
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			sz, ok := s.got(i, j)
			if ok {
				if sz != sizes.At(i, j) {
					t.Fatalf("seed %d: pair %d→%d delivered %d bytes, want %d", seed, i, j, sz, sizes.At(i, j))
				}
				sinkBytes += sz
			}
			if !dead[i] && !dead[j] && !ok {
				t.Fatalf("seed %d: survivor pair %d→%d never delivered\n%s", seed, i, j, rep)
			}
		}
	}
	if got := rep.DeliveredBytes + rep.ReroutedBytes; got != sinkBytes {
		t.Fatalf("seed %d: report says %d bytes moved, sink saw %d", seed, got, sinkBytes)
	}
	for _, d := range rep.Dests {
		if d.Abandoned > 0 && len(d.Reasons) == 0 {
			t.Fatalf("seed %d: abandoned bytes at P%d carry no reason", seed, d.Dst)
		}
	}
}

func TestExecChaosMemKillsMidExchange(t *testing.T) {
	trials := int64(12)
	if testing.Short() {
		trials = 4
	}
	for seed := int64(1); seed <= trials; seed++ {
		seed := seed
		t.Run("", func(t *testing.T) {
			t.Parallel()
			chaosTrial(t, seed, func(n int) (Transport, error) { return NewMem(n) })
		})
	}
}

func TestExecChaosTCPKillsMidExchange(t *testing.T) {
	trials := int64(6)
	if testing.Short() {
		trials = 2
	}
	for seed := int64(100); seed < 100+trials; seed++ {
		seed := seed
		t.Run("", func(t *testing.T) {
			t.Parallel()
			chaosTrial(t, seed, func(n int) (Transport, error) { return NewTCP(n) })
		})
	}
}

// TestExecChaosReplanReroutesResidual pins the recovery path itself: a
// kill early in the exchange must force at least one residual replan,
// and the replanned rounds must carry bytes (rerouted, not just
// delivered in round 0) — the tentpole behavior, not a vacuous pass.
func TestExecChaosReplanReroutesResidual(t *testing.T) {
	const n = 6
	res, m, sizes := testProblem(t, n)
	tr, err := NewMem(n)
	if err != nil {
		t.Fatal(err)
	}
	s := newSink(t)
	var once sync.Once
	cfg := fastCfg()
	cfg.Seed = 42
	cfg.Deliver = func(src, dst int, payload []byte) {
		s.deliver(src, dst, payload)
		once.Do(func() { tr.Kill(0) }) // first delivery kills P0
	}
	ex, err := New(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ex.Run(context.Background(), res, m, sizes)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Replans == 0 {
		t.Fatalf("early kill forced no replan:\n%s", rep)
	}
	if rep.ReroutedBytes == 0 {
		t.Fatalf("replan carried no bytes:\n%s", rep)
	}
	for i := 1; i < n; i++ {
		for j := 1; j < n; j++ {
			if i == j {
				continue
			}
			if _, ok := s.got(i, j); !ok {
				t.Fatalf("survivor pair %d→%d lost:\n%s", i, j, rep)
			}
		}
	}
}

// TestExecReplanOutOfOrderFails: a residual replan whose sender starts
// go backwards is not re-sorted; the exchange ends as a failed replan,
// and the residual is abandoned rather than sent in some other order.
func TestExecReplanOutOfOrderFails(t *testing.T) {
	const n = 6
	res, m, sizes := testProblem(t, n)
	tr, err := NewMem(n)
	if err != nil {
		t.Fatal(err)
	}
	var once sync.Once
	cfg := fastCfg()
	cfg.Deliver = func(src, dst int, payload []byte) {
		once.Do(func() { tr.Kill(0) })
	}
	replans := 0
	cfg.Replan = func(m *model.Matrix, residual sched.Pattern, alive func(int) bool) (*sched.Result, error) {
		replans++
		r, err := sched.ReplanResidual(m, residual, alive)
		if err == nil {
			slices.Reverse(r.Schedule.Events)
		}
		return r, err
	}
	ex, err := New(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ex.Run(context.Background(), res, m, sizes)
	if err != nil {
		t.Fatal(err)
	}
	if replans == 0 || rep.Replans != 0 || rep.ReroutedBytes != 0 || rep.AbandonedBytes == 0 {
		t.Fatalf("%d replans asked for, report:\n%s", replans, rep)
	}
}

// ackDropConn fails a connection's first write. On the accept side the
// first (and only) write is the ack, so the payload lands but the
// sender never hears — it must retry, and the receive ledger must
// absorb the duplicate.
type ackDropConn struct {
	net.Conn
	budget *atomic.Int32 // shared across conns; one drop per unit
	used   atomic.Bool
}

func (c *ackDropConn) Write(p []byte) (int, error) {
	if !c.used.Swap(true) && c.budget.Add(-1) >= 0 {
		return 0, errors.New("injected ack loss")
	}
	return c.Conn.Write(p)
}

func TestExecDuplicateSuppression(t *testing.T) {
	const n = 3
	res, m, sizes := testProblem(t, n)
	tr, err := NewMem(n)
	if err != nil {
		t.Fatal(err)
	}
	var budget atomic.Int32
	budget.Store(2)
	tr.SetConnWrapper(func(c net.Conn) net.Conn {
		return &ackDropConn{Conn: c, budget: &budget}
	})
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
	if rep.DupSuppressed < 2 {
		t.Fatalf("ledger suppressed %d duplicates, want >= 2:\n%s", rep.DupSuppressed, rep)
	}
	if rep.Retries < 2 {
		t.Fatalf("retries %d, want >= 2", rep.Retries)
	}
	// Exactly-once held anyway: the sink (which fails on double
	// delivery) saw every pair, and every byte moved.
	if s.count() != n*(n-1) || rep.DeliveredBytes+rep.ReroutedBytes != sizes.TotalBytes() {
		t.Fatalf("pairs=%d moved=%d want pairs=%d moved=%d:\n%s",
			s.count(), rep.DeliveredBytes+rep.ReroutedBytes, n*(n-1), sizes.TotalBytes(), rep)
	}
	if rep.RetriedBytes == 0 {
		t.Fatal("retried bytes not accounted")
	}
}

// TestExecBackoffJitterIsSeeded: the jitter source is built only when a
// retry first needs it, and still draws what Config.Seed defines. Acks
// lost on one pair make its one sender retry; the sleeps it asks for
// repeat exactly across runs and equal the base doubled per attempt
// plus the draws of rand.New(rand.NewSource(Seed)).
func TestExecBackoffJitterIsSeeded(t *testing.T) {
	const n, seed, lost = 3, 99, 3
	backoffs := func() []time.Duration {
		res, m, sizes := testProblem(t, n)
		tr, err := NewMem(n)
		if err != nil {
			t.Fatal(err)
		}
		var budget atomic.Int32
		budget.Store(lost)
		tr.SetPairWrapper(func(src, dst int, c net.Conn) net.Conn {
			if src == 0 && dst == 1 {
				return &ackDropConn{Conn: c, budget: &budget}
			}
			return c
		})
		var mu sync.Mutex
		var slept []time.Duration
		cfg := fastCfg()
		cfg.Seed, cfg.MaxRetries = seed, lost
		cfg.Sleep = func(d time.Duration) {
			mu.Lock()
			slept = append(slept, d)
			mu.Unlock()
		}
		ex, err := New(tr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := ex.Run(context.Background(), res, m, sizes)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Retries != lost || len(rep.Dead) != 0 {
			t.Fatalf("%d retries, dead %v; want %d and none:\n%s", rep.Retries, rep.Dead, lost, rep)
		}
		mu.Lock()
		defer mu.Unlock()
		return slept
	}
	first, second := backoffs(), backoffs()
	base := fastCfg().Backoff
	rng := rand.New(rand.NewSource(seed))
	want := make([]time.Duration, lost)
	for attempt := range want {
		want[attempt] = base<<attempt + time.Duration(rng.Int63n(int64(base)))
	}
	if !slices.Equal(first, want) || !slices.Equal(second, want) {
		t.Fatalf("backoffs %v then %v, want %v both times", first, second, want)
	}
}
