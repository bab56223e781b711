// Package exec is the data-plane exchange executor: it takes the
// timing diagram a scheduler produced (sched.Result) and performs the
// real byte transfers it describes over a pluggable Transport,
// honoring the paper's port model — at most one active send and one
// active receive per node — by construction: a node's sends run on one
// goroutine per round and its receives on one accept loop.
//
// Each transfer runs under a deadline derived from its modeled time
// (Slack × the event's duration, floored at MinDeadline), with bounded
// retries and seeded-jitter backoff. Failures are classified: a
// *PeerDeadError from the transport — or retry exhaustion — declares
// the peer dead, at which point the executor computes the residual
// communication pattern (undelivered survivor-to-survivor entries
// only), re-plans it through sched.ReplanResidual (or an injected
// ReplanFunc routing through the communicator's scheduler ladder), and
// resumes. Run returns a DeliveryReport accounting for every byte of
// the exchange: delivered under the original plan, rerouted under a
// replan, or abandoned with a reason, plus measured wall clock against
// the plan's modeled t_max.
//
// Delivery is exactly-once to the Deliver sink: the sender side is
// at-least-once (retries may duplicate an attempt whose ack was lost),
// and the receiver side deduplicates through a per-exchange ledger,
// acking duplicates without re-applying them. DESIGN.md §10 gives the
// full state machine.
//
// The executor owns every payload buffer. A transfer's bytes are
// generated once, into a pooled buffer its ledger entry holds for the
// life of the exchange; every attempt sends that buffer and every
// receive is compared byte for byte against it. Receive buffers are
// pooled too, which is why a DeliverFunc may not retain its payload.
package exec

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hetsched/internal/calib"
	"hetsched/internal/model"
	"hetsched/internal/obs"
	"hetsched/internal/sched"
	"hetsched/internal/stats"
	"hetsched/internal/timing"
)

//hetvet:ignore determinism the package's one wall-clock default; every other site injects Clock
var wallClock = time.Now

// ReplanFunc plans the residual pattern among survivors after a node
// death. It receives the original communication matrix, the pattern of
// undelivered survivor-to-survivor pairs, and the liveness predicate;
// it must return a schedule containing exactly those pairs.
type ReplanFunc func(m *model.Matrix, residual sched.Pattern, alive func(int) bool) (*sched.Result, error)

// PayloadFunc produces the bytes node src owes node dst: exactly size
// of them, a function of its arguments alone. The executor calls it
// once per transfer and verifies every receive against that result.
type PayloadFunc func(src, dst int, size int64) []byte

// DeliverFunc is the application sink. The executor calls it exactly
// once per delivered (src, dst) pair, outside all executor locks.
// payload is a pooled receive buffer, valid only until the call
// returns: copy what must outlive it.
type DeliverFunc func(src, dst int, payload []byte)

// fillFunc writes the bytes src owes dst over all of b. It is the one
// form the send and verify paths see a payload generator in.
type fillFunc func(b []byte, src, dst int)

// Config tunes an Executor. The zero value selects working defaults
// for every field.
type Config struct {
	// Slack scales a transfer's modeled duration into its attempt
	// deadline. 0 selects 4.
	Slack float64
	// MinDeadline floors the attempt deadline, so near-zero modeled
	// times still leave room for real I/O. 0 selects 50ms.
	MinDeadline time.Duration
	// MaxRetries bounds extra attempts per transfer per round before
	// the destination is declared dead. 0 selects 3; negative is an
	// error.
	MaxRetries int
	// Backoff is the base retry backoff, doubled per attempt with
	// seeded jitter in [0, Backoff). 0 selects 2ms.
	Backoff time.Duration
	// Seed drives the backoff jitter. 0 selects 1.
	Seed int64
	// MaxRounds bounds plan rounds (the original plan plus residual
	// replans). 0 selects the node count.
	MaxRounds int
	// Replan plans the residual after a death. Nil selects
	// sched.ReplanResidual (open shop on the survivor-restricted
	// matrix).
	Replan ReplanFunc
	// Payload generates transfer bytes. Nil selects a deterministic
	// generator keyed on (src, dst, offset).
	Payload PayloadFunc
	// Deliver receives each delivered payload exactly once. Nil
	// discards payloads after verification.
	Deliver DeliverFunc
	// Clock supplies deadlines and wall-clock measurement; nil selects
	// the wall clock.
	Clock func() time.Time
	// Sleep implements retry backoff; nil selects time.Sleep.
	Sleep func(time.Duration)
	// Metrics receives exec counters and histograms; nil disables.
	Metrics *obs.Registry
	// Flight, when set, receives flight-recorder events for peer
	// deaths, residual replans, and exchange completion. Nil disables.
	Flight *obs.FlightRecorder
	// Samples, when set, receives the exchange's per-transfer
	// measurements after the report is assembled — the feed the
	// closed-loop calibrator (internal/calib) consumes. The callback
	// runs once per Run, outside all executor locks, before Run
	// returns. Nil (the default) disables measurement entirely: the
	// send path takes no extra clock reads and allocates nothing.
	Samples func([]calib.Sample)
}

// Executor runs exchanges over one transport. Create with New; one
// exchange at a time per transport (Run owns the accept streams).
type Executor struct {
	tr   Transport
	cfg  Config
	fill fillFunc
	xid  atomic.Uint64
}

// New validates the configuration, fills defaults, and returns an
// executor bound to the transport.
func New(tr Transport, cfg Config) (*Executor, error) {
	if tr == nil {
		return nil, errors.New("exec: nil transport")
	}
	if cfg.Slack < 0 {
		return nil, fmt.Errorf("exec: negative slack %g", cfg.Slack)
	}
	if cfg.MaxRetries < 0 {
		return nil, fmt.Errorf("exec: negative retry bound %d", cfg.MaxRetries)
	}
	if cfg.MinDeadline < 0 || cfg.Backoff < 0 || cfg.MaxRounds < 0 {
		return nil, errors.New("exec: negative durations or round bound")
	}
	if cfg.Slack == 0 {
		cfg.Slack = 4
	}
	if cfg.MinDeadline == 0 {
		cfg.MinDeadline = 50 * time.Millisecond
	}
	if cfg.MaxRetries == 0 {
		cfg.MaxRetries = 3
	}
	if cfg.Backoff == 0 {
		cfg.Backoff = 2 * time.Millisecond
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Replan == nil {
		cfg.Replan = func(m *model.Matrix, residual sched.Pattern, alive func(int) bool) (*sched.Result, error) {
			return sched.ReplanResidual(m, residual, alive)
		}
	}
	fill := defaultFill
	if gen := cfg.Payload; gen != nil {
		fill = func(b []byte, src, dst int) {
			// A generator that comes up short must not put a pooled
			// buffer's previous contents on the wire.
			clear(b[copy(b, gen(src, dst, int64(len(b)))):])
		}
	}
	if cfg.Clock == nil {
		cfg.Clock = wallClock
	}
	if cfg.Sleep == nil {
		cfg.Sleep = time.Sleep
	}
	return &Executor{tr: tr, cfg: cfg, fill: fill}, nil
}

// DefaultPayload is the executor's deterministic payload generator: a
// byte pattern keyed on (src, dst, offset).
func DefaultPayload(src, dst int, size int64) []byte {
	if size <= 0 {
		return nil
	}
	b := make([]byte, size)
	defaultFill(b, src, dst)
	return b
}

// defaultFill writes byte(7*src + 13*dst + 31*i + 5) at every offset i.
// 31 is odd, so the pattern's period is exactly 256: the first period
// is computed and the rest is doubling copies of what is already there.
func defaultFill(b []byte, src, dst int) {
	base := 7*src + 13*dst + 5
	head := min(len(b), 256)
	for i := 0; i < head; i++ {
		b[i] = byte(base + 31*i)
	}
	for done := head; done < len(b); done *= 2 {
		copy(b[done:], b[:done])
	}
}

// transfer is the executor's ledger entry for one (src, dst) cell of
// the size matrix. The mutable fields below size are guarded by run.mu;
// buf is written once under gen and read through run.payload.
type transfer struct {
	src, dst int
	size     int64
	modeled  float64 // the matrix's time for this pair, seconds

	applied bool    // payload handed to the Deliver sink (exactly once)
	round   int     // plan round the applied attempt was sent under
	retries int     // extra attempts beyond the first, across rounds
	seconds float64 // measured wall of the successful attempt; 0 unless Samples is armed

	gen sync.Once
	buf *[]byte // the pair's bytes, held from first use until Run has joined every port

	frame [frameLen]byte // the sender's header and ack scratch; only the pair's sender touches it
}

// run is the state of one exchange execution.
type run struct {
	ex    *Executor
	xid   uint64
	n     int
	ctx   context.Context // exchange-scoped; carries the request trace
	trace uint64          // trace ID for flight events and the report

	mu         sync.Mutex // guards alive, deadReason, st fields, dup, aborted, lost — never held across I/O
	alive      []bool
	deadReason []string
	st         [][]*transfer
	dup        int  // duplicate applies suppressed by the ledger
	aborted    bool // a death invalidated the current round's plan
	lost       bool // the transport was closed under the exchange

	recvWindow time.Duration // receive-side deadline bound

	rngMu sync.Mutex
	rng   *rand.Rand // seeded from Config.Seed by the first backoff; a healthy exchange never needs it

	acceptWg sync.WaitGroup
}

// Run executes the planned exchange: res is the schedule to honor, m
// the communication-time matrix it was planned from (reused for
// residual replans), sizes the byte counts to move. It blocks until
// every byte is delivered, rerouted, or abandoned, then reports. ctx
// carries request-scoped trace correlation (obs.TraceContext /
// obs.ReqTrace): when present, the exchange (noted with the transport
// type), each round, each transfer, and the Samples hand-off land on
// the request's span tree, flight events are tagged with the trace ID,
// and the report echoes it.
//
// Each sender walks its column in sequence order (timing.Columns): a
// plan whose sender starts go backwards is an error, and a replan like
// that a failed replan.
//
// Run closes the transport when it finishes, so a transport carries one
// exchange. On a transport that is already closed, or that the caller
// closes mid-exchange, Run joins its goroutines and returns an error
// wrapping ErrTransportClosed instead of a report.
func (e *Executor) Run(ctx context.Context, res *sched.Result, m *model.Matrix, sizes *model.Sizes) (*DeliveryReport, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if res == nil || res.Schedule == nil || m == nil || sizes == nil {
		return nil, errors.New("exec: nil plan, matrix, or sizes")
	}
	n := e.tr.N()
	if res.Schedule.N != n || m.N() != n || sizes.N() != n {
		return nil, fmt.Errorf("exec: transport has %d nodes but plan=%d matrix=%d sizes=%d",
			n, res.Schedule.N, m.N(), sizes.N())
	}
	cols, err := res.Schedule.Columns()
	if err != nil {
		return nil, fmt.Errorf("exec: plan: %w", err)
	}
	maxRounds := e.cfg.MaxRounds
	if maxRounds == 0 {
		maxRounds = n
		if maxRounds < 1 {
			maxRounds = 1
		}
	}

	r := e.newRun(m, sizes)

	xctx, xsp := obs.StartSpan(ctx, "exec", "exchange")
	if xsp != nil {
		xsp.SetNote(fmt.Sprintf("%T", e.tr))
	}
	r.ctx = xctx
	r.trace = obs.TraceFrom(xctx).TraceID
	start := e.cfg.Clock()

	r.acceptWg.Add(n)
	for node := 0; node < n; node++ {
		go r.acceptLoop(node)
	}

	rounds, replans := 0, 0
	for round := 0; round < maxRounds; round++ {
		_, rsp := obs.StartSpan(xctx, "exec", "round")
		r.runRound(round, cols)
		rsp.End()
		rounds++
		if r.transportLost() {
			break
		}
		residual := r.residualPattern()
		if len(residual) == 0 {
			break
		}
		if round+1 >= maxRounds {
			break
		}
		next, err := e.cfg.Replan(m, residual, r.isAlive)
		if err == nil {
			cols, err = next.Schedule.Columns()
		}
		if err != nil {
			obs.Mark(xctx, "exec", "replan_failed", err.Error())
			break
		}
		replans++
		e.counter(MetricExecReplans).Inc()
		obs.Mark(xctx, "exec", "replan", "")
		e.cfg.Flight.Record("exec", "replan", r.trace, int64(len(residual)), int64(round))
	}

	closeErr := e.tr.Close()
	r.acceptWg.Wait()
	// No sender or port is left to read a payload.
	r.releasePayloads()
	switch {
	case closeErr != nil:
		err = fmt.Errorf("exec: closing transport: %w", closeErr)
	case r.transportLost():
		err = fmt.Errorf("exec: exchange %d stopped in round %d: %w", r.xid, rounds-1, ErrTransportClosed)
	}
	if err != nil {
		xsp.End()
		return nil, err
	}

	rep := r.finalize(rounds, replans, res.CompletionTime(), e.cfg.Clock().Sub(start))
	rep.Trace = obs.FormatTraceID(r.trace)
	xsp.End()
	e.cfg.Flight.Record("exec", "exchange_done", r.trace, rep.DeliveredBytes+rep.ReroutedBytes, int64(len(rep.Dead)))
	e.observeReport(rep)
	if e.cfg.Samples != nil {
		if samples := r.collectSamples(); len(samples) > 0 {
			_, ssp := obs.StartSpan(ctx, "calib", "observe_batch")
			e.cfg.Samples(samples)
			ssp.End()
		}
	}
	return rep, nil
}

// newRun builds the state of one exchange over the executor's
// transport: a fresh exchange id and a pending ledger entry for every
// off-diagonal cell of sizes. The shapes are already checked.
func (e *Executor) newRun(m *model.Matrix, sizes *model.Sizes) *run {
	n := sizes.N()
	r := &run{
		ex:         e,
		xid:        e.xid.Add(1),
		n:          n,
		alive:      make([]bool, n),
		deadReason: make([]string, n),
		st:         make([][]*transfer, n),
	}
	maxModeled := 0.0
	cells, rows := make([]transfer, n*n), make([]*transfer, n*n)
	for i := 0; i < n; i++ {
		r.alive[i] = true
		r.st[i] = rows[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			t := &cells[i*n+j]
			t.src, t.dst, t.size, t.modeled = i, j, sizes.At(i, j), m.At(i, j)
			r.st[i][j] = t
			if t.modeled > maxModeled {
				maxModeled = t.modeled
			}
		}
	}
	r.recvWindow = r.attemptDeadline(maxModeled) + e.cfg.MinDeadline
	return r
}

// collectSamples folds the quiescent ledger into calibration samples:
// one per transfer whose successful attempt was measured, tagged with
// how the transfer resolved so the calibrator can refuse anything a
// fault touched. Ascending (src, dst) order keeps the feed
// deterministic for a deterministic exchange.
func (r *run) collectSamples() []calib.Sample {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []calib.Sample
	for src := 0; src < r.n; src++ {
		for dst := 0; dst < r.n; dst++ {
			t := r.st[src][dst]
			if t == nil || !t.applied || t.seconds <= 0 {
				continue
			}
			outcome := calib.OutcomeDelivered
			if t.round > 0 {
				outcome = calib.OutcomeRerouted
			}
			out = append(out, calib.Sample{
				Src: src, Dst: dst, Bytes: t.size,
				Seconds: t.seconds, Retries: t.retries,
				Outcome: outcome,
			})
		}
	}
	return out
}

// releasePayloads returns every generated payload to the buffer pool.
// Only Run calls it, after every sender and handler has exited.
func (r *run) releasePayloads() {
	for _, row := range r.st {
		for _, t := range row {
			if t != nil && t.buf != nil {
				putBuf(t.buf)
				t.buf = nil
			}
		}
	}
}

// payload returns the bytes src owes dst, generating them into a pooled
// buffer on first use. The sender normally gets here first; a receiver
// handed a header for a pair whose sender has not started yet fills the
// same entry, so there is one generation whichever end asks.
func (r *run) payload(t *transfer) []byte {
	if t.size <= 0 {
		return nil
	}
	t.gen.Do(func() {
		t.buf = getBuf(int(t.size))
		r.ex.fill(*t.buf, t.src, t.dst)
	})
	return *t.buf
}

// noteTransportLost records that a sender found the transport closed
// while rounds were still running, which only a caller can have done,
// and ends the round.
func (r *run) noteTransportLost() {
	r.mu.Lock()
	r.lost = true
	r.aborted = true
	r.mu.Unlock()
}

// transportLost reports whether a round hit a closed transport.
func (r *run) transportLost() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lost
}

// isAlive reports current liveness; safe from any goroutine.
func (r *run) isAlive(node int) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return node >= 0 && node < r.n && r.alive[node]
}

// markDead records a node death once, with the first-observed reason,
// aborts the round (the death invalidates the plan's port pairings, so
// the remainder is residual work to re-plan among survivors), and
// severs the node at the transport so subsequent dials fail fast. The
// transport call happens outside the lock.
func (r *run) markDead(node int, reason string) {
	if node < 0 || node >= r.n {
		return
	}
	r.mu.Lock()
	already := !r.alive[node]
	if !already {
		r.alive[node] = false
		r.deadReason[node] = reason
		r.aborted = true
	}
	r.mu.Unlock()
	if already {
		return
	}
	r.ex.counter(MetricExecPeerDeaths).Inc()
	obs.Mark(r.ctx, "exec", "peer_dead", reason)
	r.ex.cfg.Flight.Record("exec", "peer_dead", r.trace, int64(node), 0)
	r.ex.tr.Kill(node)
}

// residualPattern snapshots the undelivered survivor-to-survivor pairs.
func (r *run) residualPattern() sched.Pattern {
	r.mu.Lock()
	alive := append([]bool(nil), r.alive...)
	applied := make([]bool, r.n*r.n)
	for i := 0; i < r.n; i++ {
		for j := 0; j < r.n; j++ {
			if t := r.st[i][j]; t != nil && t.applied {
				applied[i*r.n+j] = true
			}
		}
	}
	r.mu.Unlock()
	return sched.ResidualPattern(r.n,
		func(i int) bool { return alive[i] },
		func(i, j int) bool { return applied[i*r.n+j] })
}

// attemptDeadline converts a modeled duration (seconds) into the wall
// budget for one attempt.
func (r *run) attemptDeadline(modeled float64) time.Duration {
	d := time.Duration(modeled * r.ex.cfg.Slack * float64(time.Second))
	if d < r.ex.cfg.MinDeadline {
		d = r.ex.cfg.MinDeadline
	}
	return d
}

// backoff returns the sleep before retry number attempt+1: the base
// doubled per attempt (capped at 1s) plus seeded jitter in [0, base).
func (r *run) backoff(attempt int) time.Duration {
	base := r.ex.cfg.Backoff
	for i := 0; i < attempt && base < time.Second; i++ {
		base *= 2
	}
	if base > time.Second {
		base = time.Second
	}
	r.rngMu.Lock()
	if r.rng == nil {
		r.rng = rand.New(rand.NewSource(r.ex.cfg.Seed))
	}
	j := time.Duration(r.rng.Int63n(int64(r.ex.cfg.Backoff)))
	r.rngMu.Unlock()
	return base + j
}

// roundAborted reports whether a death has invalidated the round's
// plan since the round started.
func (r *run) roundAborted() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.aborted
}

// runRound executes one plan round: each alive sender walks its own
// column of the timing diagram in sequence order, all senders
// concurrently. The round ends when every sender column is drained —
// or early, when a death aborts the plan and leaves the remainder as
// residual work.
func (r *run) runRound(round int, cols [][]timing.Event) {
	r.mu.Lock()
	r.aborted = false
	r.mu.Unlock()
	var wg sync.WaitGroup
	for src, evs := range cols {
		if len(evs) == 0 || !r.isAlive(src) {
			continue
		}
		wg.Add(1)
		go func(src int, evs []timing.Event) {
			defer wg.Done()
			r.sendLoop(round, src, evs)
		}(src, evs)
	}
	wg.Wait()
}

// sendLoop drains one sender's column for the round, stopping when a
// death aborts the plan and skipping pairs that died or were already
// applied (a retry whose ack was lost may have landed).
func (r *run) sendLoop(round, src int, evs []timing.Event) {
	for _, e := range evs {
		if r.roundAborted() || !r.isAlive(src) {
			return
		}
		if !r.isAlive(e.Dst) {
			continue
		}
		t := r.st[src][e.Dst]
		r.mu.Lock()
		done := t.applied
		r.mu.Unlock()
		if done {
			continue
		}
		r.sendOne(round, t, e.Duration())
	}
}

// sendOne pushes one transfer through the attempt/retry ladder. Its
// caller is the sender's one loop for the round, so this is the node's
// only active send.
func (r *run) sendOne(round int, t *transfer, modeled float64) {
	_, tsp := obs.StartSpan(r.ctx, "exec", "transfer")
	if tsp != nil {
		tsp.SetNote(fmt.Sprintf("%d to %d", t.src, t.dst))
	}
	defer tsp.End()
	deadline := r.attemptDeadline(modeled)
	measure := r.ex.cfg.Samples != nil
	for attempt := 0; ; attempt++ {
		var began time.Time
		if measure {
			began = r.ex.cfg.Clock()
		}
		err := r.attempt(round, attempt, t, deadline)
		r.ex.counter(MetricExecAttempts).Inc()
		if err == nil {
			if measure {
				elapsed := r.ex.cfg.Clock().Sub(began).Seconds()
				r.mu.Lock()
				t.seconds = elapsed
				r.mu.Unlock()
			}
			return
		}
		if errors.Is(err, ErrTransportClosed) {
			r.noteTransportLost()
			return
		}
		var pd *PeerDeadError
		if errors.As(err, &pd) {
			r.markDead(pd.Node, fmt.Sprintf("transport: %v", err))
			return
		}
		if attempt >= r.ex.cfg.MaxRetries {
			r.markDead(t.dst, fmt.Sprintf("unreachable after %d attempts: %v", attempt+1, err))
			return
		}
		r.noteRetry(t)
		r.ex.cfg.Sleep(r.backoff(attempt))
	}
}

// noteRetry counts one extra attempt against the transfer.
func (r *run) noteRetry(t *transfer) {
	r.mu.Lock()
	t.retries++
	r.mu.Unlock()
	r.ex.counter(MetricExecRetries).Inc()
	obs.Mark(r.ctx, "exec", "retry", "")
}

// attempt performs one transfer attempt over a fresh connection: dial,
// deadline, header + payload out, ack back. Any error is retriable
// unless it classifies as peer-dead or transport-closed.
func (r *run) attempt(round, attempt int, t *transfer, deadline time.Duration) error {
	c, err := r.ex.tr.Dial(t.src, t.dst)
	if err != nil {
		return err
	}
	defer severAll(c)
	if err := c.SetDeadline(r.ex.cfg.Clock().Add(deadline)); err != nil {
		return fmt.Errorf("exec: set deadline %d→%d: %w", t.src, t.dst, err)
	}
	h := frameHeader{xid: r.xid, src: uint32(t.src), dst: uint32(t.dst),
		round: uint32(round), attempt: uint32(attempt), size: uint64(t.size)}
	h.put(&t.frame)
	if _, err := c.Write(t.frame[:]); err != nil {
		return fmt.Errorf("exec: write header %d→%d: %w", t.src, t.dst, err)
	}
	if t.size > 0 {
		if _, err := c.Write(r.payload(t)); err != nil {
			return fmt.Errorf("exec: write payload %d→%d: %w", t.src, t.dst, err)
		}
	}
	ack := t.frame[:1]
	if _, err := io.ReadFull(c, ack); err != nil {
		return fmt.Errorf("exec: read ack %d→%d: %w", t.src, t.dst, err)
	}
	if code := ackCode(ack[0]); code != ackOK && code != ackDup {
		return fmt.Errorf("exec: receiver answered %d→%d %v", t.src, t.dst, code)
	}
	return nil
}

// acceptLoop is one node's receive port for the life of the run: it
// serves inbound attempts one at a time, inline, which is the port
// model's one active receive per node. Dials that arrive meanwhile wait
// in the transport's backlog, bounded by their senders' deadlines.
func (r *run) acceptLoop(node int) {
	defer r.acceptWg.Done()
	var frame [frameLen]byte
	for {
		c, err := r.ex.tr.Accept(node)
		if err != nil {
			return
		}
		r.serve(node, c, &frame)
	}
}

// serve handles one inbound attempt: read and verify one transfer,
// apply it through the ledger, and ack. The whole attempt, ack
// included, runs under one receive deadline, so a stalled ack write
// cannot hold the port; severAll clears the deadline as the connection
// closes, which it always does here.
func (r *run) serve(node int, c net.Conn, frame *[frameLen]byte) {
	defer severAll(c)
	if err := c.SetDeadline(r.ex.cfg.Clock().Add(r.recvWindow)); err != nil {
		return
	}
	if _, err := io.ReadFull(c, frame[:]); err != nil {
		return
	}
	code := r.receive(node, c, frame)
	frame[0] = byte(code)
	if _, err := c.Write(frame[:1]); err != nil {
		return // a lost ack makes the sender retry, and the ledger answers the copy dup
	}
}

// receive validates a header against the run, reads the payload into a
// pooled buffer, verifies it byte for byte against the ledger's
// generation, and applies it exactly once through the ledger. The
// buffer is recycled on return, after Deliver is done with it.
func (r *run) receive(node int, c io.Reader, frame *[frameLen]byte) ackCode {
	// The reason for a verdict other than ok or dup stays here, marked
	// on the exchange's trace under the verdict's name.
	reject := func(code ackCode, format string, args ...any) ackCode {
		obs.Mark(r.ctx, "exec", code.String(), fmt.Sprintf(format, args...))
		return code
	}
	h, ok := parseFrame(frame)
	switch {
	case !ok:
		return reject(ackRefused, "frame version %d, want %d", frame[0], frameVersion)
	case h.xid != r.xid:
		return reject(ackRefused, "exchange %d, want %d", h.xid, r.xid)
	case h.dst != uint32(node):
		return reject(ackRefused, "misrouted: header says dst %d at node %d", h.dst, node)
	case h.src >= uint32(r.n) || h.src == h.dst:
		return reject(ackRefused, "invalid src %d at node %d", h.src, node)
	}
	t := r.st[h.src][node]
	if h.size != uint64(t.size) {
		return reject(ackRefused, "size %d, sizes matrix says %d", h.size, t.size)
	}
	var payload []byte
	if t.size > 0 {
		buf := getBuf(int(t.size))
		defer putBuf(buf)
		payload = *buf
		if _, err := io.ReadFull(c, payload); err != nil {
			return reject(ackRefused, "short payload %d→%d: %v", t.src, t.dst, err)
		}
		if !bytes.Equal(payload, r.payload(t)) {
			return reject(ackCorrupt, "payload %d→%d differs from the pair's bytes", t.src, t.dst)
		}
	}
	r.mu.Lock()
	dup := t.applied
	if dup {
		r.dup++
	} else {
		t.applied = true
		t.round = int(h.round)
	}
	r.mu.Unlock()
	if dup {
		return ackDup
	}
	if r.ex.cfg.Deliver != nil {
		r.ex.cfg.Deliver(t.src, t.dst, payload)
	}
	return ackOK
}

// finalize folds the ledger into the delivery report. It runs after
// every handler has exited, so the ledger is quiescent.
func (r *run) finalize(rounds, replans int, modeled float64, wall time.Duration) *DeliveryReport {
	r.mu.Lock()
	defer r.mu.Unlock()
	rep := &DeliveryReport{
		N: r.n, Rounds: rounds, Replans: replans,
		Modeled: modeled, Wall: wall,
	}
	for node := 0; node < r.n; node++ {
		if !r.alive[node] {
			rep.Dead = append(rep.Dead, node)
		}
	}
	sort.Ints(rep.Dead)
	for dst := 0; dst < r.n; dst++ {
		d := DestReport{Dst: dst}
		for src := 0; src < r.n; src++ {
			t := r.st[src][dst]
			if t == nil {
				continue
			}
			d.Transfers++
			d.Retries += t.retries
			rep.Retries += t.retries
			rep.TotalBytes += t.size
			if t.retries > 0 {
				d.Retried += t.size
				rep.RetriedBytes += t.size
			}
			switch {
			case t.applied && t.round == 0:
				d.Delivered += t.size
				rep.DeliveredBytes += t.size
				rep.DeliveredTransfers++
			case t.applied:
				d.Rerouted += t.size
				rep.ReroutedBytes += t.size
				rep.ReroutedTransfers++
			default:
				d.Abandoned += t.size
				rep.AbandonedBytes += t.size
				rep.AbandonedTransfers++
				if reason := r.abandonReason(src, dst); !slices.Contains(d.Reasons, reason) {
					d.Reasons = append(d.Reasons, reason)
				}
			}
		}
		rep.Dests = append(rep.Dests, d)
	}
	rep.DupSuppressed = r.dup
	rep.Fit = r.pairFit()
	return rep
}

// pairFit compares each measured transfer with the model's time for
// its pair. Called with r.mu held.
func (r *run) pairFit() *PairFit {
	var fit PairFit
	var ratios []float64
	for _, row := range r.st {
		for _, t := range row {
			if t == nil || !t.applied || t.seconds <= 0 || !(t.modeled > 0) {
				continue
			}
			ratio := t.seconds / t.modeled
			if len(ratios) == 0 || ratio > fit.Worst.Ratio() {
				fit.Worst = PairTiming{Src: t.src, Dst: t.dst, Measured: t.seconds, Modeled: t.modeled}
			}
			ratios = append(ratios, ratio)
		}
	}
	if len(ratios) == 0 {
		return nil
	}
	fit.Pairs = len(ratios)
	fit.MedianRatio = stats.Percentile(ratios, 0.5)
	return &fit
}

// abandonReason explains why a pending transfer can no longer move.
// Called with r.mu held.
func (r *run) abandonReason(src, dst int) string {
	switch {
	case !r.alive[dst]:
		return fmt.Sprintf("P%d dead: %s", dst, r.deadReason[dst])
	case !r.alive[src]:
		return fmt.Sprintf("sender P%d dead: %s", src, r.deadReason[src])
	default:
		return "rounds exhausted"
	}
}
