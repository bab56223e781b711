package directory

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"hetsched/internal/calib"
	"hetsched/internal/netmodel"
	"hetsched/internal/obs"
)

// This file implements the fault-tolerant client the wide-area setting
// demands: the paper's framework leans on a run-time directory service
// (Globus MDS / GUSTO-style) for every scheduling decision, and on a
// metacomputing testbed the directory is exactly the component most
// likely to be slow, partitioned, or restarting. ResilientClient wraps
// the raw Client with per-request deadlines, retry with exponential
// backoff and seeded jitter, automatic reconnection, and a versioned
// last-known-good snapshot cache so reads degrade to serving stale
// data — marked with its age — instead of failing. The same held
// snapshot is the validator of a conditional fetch: while the server
// is still at its version the table crosses the wire once, not once
// per read.

// ResilientConfig tunes a ResilientClient. The zero value selects
// sensible defaults for every field.
type ResilientConfig struct {
	// DialTimeout bounds each connection attempt; 0 selects 2s.
	DialTimeout time.Duration
	// RequestTimeout bounds each round trip; 0 selects 2s, negative
	// disables the deadline.
	RequestTimeout time.Duration
	// Retries is the number of attempts per request (first try
	// included); 0 selects 3.
	Retries int
	// BackoffBase is the delay before the first retry, doubled per
	// attempt; 0 selects 10ms.
	BackoffBase time.Duration
	// BackoffMax caps the backoff; 0 selects 1s.
	BackoffMax time.Duration
	// Seed drives the jitter; 0 selects 1. Two clients with the same
	// seed and call sequence back off identically, keeping chaos runs
	// reproducible.
	Seed int64
	// Clock supplies the current time for cache ages; nil selects
	// time.Now. Tests inject a fake clock here.
	Clock func() time.Time
	// Sleep waits between retries; nil selects time.Sleep.
	Sleep func(time.Duration)
	// Metrics mirrors the ResilientCounters into this registry
	// (hetsched_directory_{requests,retries,redials,stale_serves}_total).
	// Nil disables metrics; every hook is then a nil-pointer no-op.
	// A request whose ctx carries an obs.ReqTrace gets a span per op and
	// a mark per retry, redial, and cache serve on that trace.
	Metrics *obs.Registry
}

func (cfg ResilientConfig) withDefaults() ResilientConfig {
	if cfg.DialTimeout == 0 {
		cfg.DialTimeout = 2 * time.Second
	}
	if cfg.RequestTimeout == 0 {
		cfg.RequestTimeout = 2 * time.Second
	}
	if cfg.RequestTimeout < 0 {
		cfg.RequestTimeout = 0
	}
	if cfg.Retries <= 0 {
		cfg.Retries = 3
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = 10 * time.Millisecond
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = time.Second
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Clock == nil {
		cfg.Clock = wallClock
	}
	if cfg.Sleep == nil {
		cfg.Sleep = time.Sleep
	}
	return cfg
}

// SnapshotMeta describes where a snapshot (or degraded query) came
// from: the store version it carries, and — when the server was
// unreachable — that it is stale and how old it is.
type SnapshotMeta struct {
	Version uint64
	Stale   bool
	Age     time.Duration
}

// ResilientCounters expose what the client has survived.
type ResilientCounters struct {
	Requests    int // calls made through the client
	Retries     int // extra attempts after a transient failure
	Reconnects  int // fresh connections dialed after the first
	StaleServes int // reads answered from the last-known-good cache
	Unchanged   int // snapshot fetches the server answered not_modified: no table moved
}

// ResilientClient is a directory client that retries, reconnects, and
// degrades to stale data instead of failing. It is safe for concurrent
// use. The connection is dialed lazily, so construction never blocks.
type ResilientClient struct {
	addr string
	cfg  ResilientConfig
	// sleepInjected records that cfg.Sleep came from the caller (tests
	// inject instant sleeps); the default sleep is replaced by a
	// context-aware wait in sleepCtx.
	sleepInjected bool

	mu     sync.Mutex
	cl     *Client // nil until the first successful dial
	dialed bool    // whether cl was ever dialed (for the reconnect counter)
	rng    *rand.Rand
	ctr    ResilientCounters

	// The one snapshot the client holds: the stale cache when the server
	// is down, the validator of the next fetch when it is up. heldAt is
	// when the server last vouched for it, by sending it or by answering
	// not_modified.
	held   *heldSnapshot
	heldAt time.Time

	// resolved telemetry instruments; all nil when telemetry is off,
	// so every hook is a single pointer check.
	mRequests, mRetries, mRedials, mStale *obs.Counter
}

// heldSnapshot is one fetched snapshot. It is immutable once built —
// Source hands perf to every planner that asks — and carries the
// connection it arrived on, because its version identifies the table
// only to the server behind that connection: a redial may reach a
// restarted directory whose counter reads the same over another table.
// Every redial makes a fresh *Client (no client reconnects in place),
// so pointer identity is connection identity.
type heldSnapshot struct {
	perf    *netmodel.Perf
	names   []string
	version uint64
	conn    *Client
}

// NewResilientClient creates a client for addr. No connection is made
// until the first request.
func NewResilientClient(addr string, cfg ResilientConfig) *ResilientClient {
	sleepInjected := cfg.Sleep != nil
	cfg = cfg.withDefaults()
	r := &ResilientClient{addr: addr, cfg: cfg, sleepInjected: sleepInjected,
		rng: rand.New(rand.NewSource(cfg.Seed))}
	if reg := cfg.Metrics; reg != nil {
		r.mRequests = reg.Counter(obs.MetricDirectoryRequests,
			"Requests made through resilient directory clients.")
		r.mRetries = reg.Counter(obs.MetricDirectoryRetries,
			"Extra directory attempts after transient failures.")
		r.mRedials = reg.Counter(obs.MetricDirectoryRedials,
			"Fresh directory connections dialed after the first.")
		r.mStale = reg.Counter(obs.MetricDirectoryStaleServes,
			"Directory reads answered from the last-known-good cache.")
	}
	return r
}

// Counters returns a copy of the resilience counters.
func (r *ResilientClient) Counters() ResilientCounters {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ctr
}

// Close shuts any live connection. The client may be used again; the
// next request redials. As everywhere in this type, r.mu only guards
// the pointer swap — the network close runs after unlocking.
func (r *ResilientClient) Close() error {
	r.mu.Lock()
	cl := r.cl
	r.cl = nil
	r.mu.Unlock()
	if cl == nil {
		return nil
	}
	return cl.Close()
}

// client returns a live connection, dialing (or redialing after a
// break) as needed. The dial runs outside r.mu so a slow or dead
// server never blocks concurrent callers that only need bookkeeping
// (Counters, backoff jitter, the stale cache). Two callers may race
// to redial; the loser's connection is discarded. A redial is marked on
// the request trace ctx carries.
func (r *ResilientClient) client(ctx context.Context) (*Client, error) {
	r.mu.Lock()
	cur := r.cl
	r.mu.Unlock()
	if cur != nil && !cur.Broken() {
		return cur, nil
	}
	fresh, err := Dial(r.addr, r.cfg.DialTimeout)
	if err != nil {
		return nil, err
	}
	fresh.SetRequestTimeout(r.cfg.RequestTimeout)
	r.mu.Lock()
	old := r.cl
	if old != nil && old != cur && !old.Broken() {
		// A concurrent caller installed a healthy connection while we
		// were dialing; keep theirs and discard ours.
		r.mu.Unlock()
		fresh.Close()
		return old, nil
	}
	r.cl = fresh
	redial := r.dialed
	r.dialed = true
	if redial {
		r.ctr.Reconnects++
	}
	r.mu.Unlock()
	if redial {
		r.mRedials.Inc()
		obs.Mark(ctx, "directory", "redial", "")
	}
	if old != nil {
		old.Close()
	}
	return fresh, nil
}

// drop discards the current connection after a transport failure. The
// close happens outside r.mu; only the pointer swap is locked.
func (r *ResilientClient) drop() {
	r.mu.Lock()
	cl := r.cl
	r.cl = nil
	r.mu.Unlock()
	if cl != nil {
		cl.Close()
	}
}

// transient reports whether retrying the request can help.
func transient(err error) bool {
	return errors.Is(err, ErrUnavailable) || errors.Is(err, ErrBroken)
}

// backoff returns the jittered delay before retry number attempt
// (0-based): base·2^attempt capped at max, scaled into [½d, d].
func (r *ResilientClient) backoff(attempt int) time.Duration {
	d := r.cfg.BackoffBase << uint(attempt)
	if d > r.cfg.BackoffMax || d <= 0 {
		d = r.cfg.BackoffMax
	}
	r.mu.Lock()
	f := 0.5 + 0.5*r.rng.Float64()
	r.mu.Unlock()
	return time.Duration(float64(d) * f)
}

// sleepCtx waits d, aborting immediately when ctx is canceled. With a
// caller-injected Sleep the injected function runs as-is (tests inject
// instant sleeps), but cancellation is still honored before and after;
// with the default sleep the wait itself is a select against
// ctx.Done(), so a canceled caller never sits out a full backoff
// interval.
func (r *ResilientClient) sleepCtx(ctx context.Context, d time.Duration) error {
	if ctx.Done() == nil {
		r.cfg.Sleep(d)
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if r.sleepInjected {
		r.cfg.Sleep(d)
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// doCtx runs op (named for telemetry) with retry, backoff, and
// reconnection. Server-reported errors (out-of-range pair, malformed
// update) return immediately; only transport failures are retried. A
// canceled ctx aborts the backoff wait immediately and stops further
// attempts; the in-flight network call itself is still bounded by
// RequestTimeout, not by ctx. When ctx carries a request trace the op
// is a span on it, noted with the error it failed with.
func (r *ResilientClient) doCtx(ctx context.Context, name string, op func(cl *Client) error) (err error) {
	r.mu.Lock()
	r.ctr.Requests++
	r.mu.Unlock()
	r.mRequests.Inc()
	ctx, sp := obs.StartSpan(ctx, "directory", name)
	if sp != nil {
		defer func() {
			if err != nil {
				sp.SetNote(err.Error())
			}
			sp.End()
		}()
	}
	var lastErr error
	for attempt := 0; attempt < r.cfg.Retries; attempt++ {
		if attempt > 0 {
			r.mu.Lock()
			r.ctr.Retries++
			r.mu.Unlock()
			r.mRetries.Inc()
			obs.Mark(ctx, "directory", "retry", name)
			if cerr := r.sleepCtx(ctx, r.backoff(attempt-1)); cerr != nil {
				if lastErr != nil {
					return fmt.Errorf("%w (gave up retrying: %v)", cerr, lastErr)
				}
				return cerr
			}
		}
		cl, cerr := r.client(ctx)
		if cerr == nil {
			cerr = op(cl)
			if cerr == nil {
				return nil
			}
			if !transient(cerr) {
				return cerr
			}
			r.drop()
		}
		lastErr = cerr
		if cerr := ctx.Err(); cerr != nil {
			return fmt.Errorf("%w (gave up retrying: %v)", cerr, lastErr)
		}
	}
	return lastErr
}

// fetch is the one path every snapshot read takes. It asks the server
// for the table unless it is still at the held version — a question it
// may only put on the connection the held snapshot came from — and
// returns the snapshot the server vouched for: the held one after a
// not_modified, a freshly decoded and validated one otherwise, which
// then becomes the held one. All wire work happens outside r.mu.
func (r *ResilientClient) fetch(ctx context.Context) (*heldSnapshot, error) {
	var (
		got       *heldSnapshot
		unchanged bool
	)
	err := r.doCtx(ctx, "snapshot", func(cl *Client) error {
		r.mu.Lock()
		held := r.held
		r.mu.Unlock()
		var have *uint64
		if held != nil && held.conn == cl {
			have = &held.version
		}
		perf, names, ver, err := cl.snapshotUnless(have)
		if err != nil {
			return err
		}
		unchanged = perf == nil
		if unchanged {
			got = held
		} else {
			got = &heldSnapshot{perf: perf, names: names, version: ver, conn: cl}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	now := r.cfg.Clock()
	r.mu.Lock()
	if unchanged {
		r.ctr.Unchanged++
	}
	// Replies on one connection arrive in version order, but two fetchers
	// may reach this line out of it; the newer table stays held.
	if cur := r.held; cur == nil || cur.conn != got.conn || cur.version <= got.version {
		r.held, r.heldAt = got, now
	}
	r.mu.Unlock()
	return got, nil
}

// Snapshot fetches the whole table, retrying and reconnecting as
// configured. When the server stays unreachable it falls back to the
// last-known-good snapshot — meta.Stale is set and meta.Age tells how
// old the data is — and only errors when no usable cache exists. The
// returned table and names are the caller's own copies.
func (r *ResilientClient) Snapshot() (*netmodel.Perf, []string, SnapshotMeta, error) {
	return r.SnapshotContext(context.Background())
}

// SnapshotContext is Snapshot bounded by a caller context: a canceled
// ctx aborts retry backoff waits immediately instead of sleeping out
// the full interval — the behavior a serving daemon needs when the
// client that wanted the data has already given up.
func (r *ResilientClient) SnapshotContext(ctx context.Context) (*netmodel.Perf, []string, SnapshotMeta, error) {
	h, meta, err := r.fetchOrStale(ctx)
	if err != nil {
		return nil, nil, SnapshotMeta{}, err
	}
	return h.perf.Clone(), append([]string(nil), h.names...), meta, nil
}

// fetchOrStale is fetch degrading to the held snapshot when the server
// cannot be reached.
func (r *ResilientClient) fetchOrStale(ctx context.Context) (*heldSnapshot, SnapshotMeta, error) {
	h, err := r.fetch(ctx)
	if err == nil {
		return h, SnapshotMeta{Version: h.version}, nil
	}
	if h, meta, ok := r.staleSnapshot(ctx, r.cfg.Clock()); ok {
		return h, meta, nil
	}
	return nil, SnapshotMeta{}, err
}

// staleSnapshot serves the held snapshot at any age, marking the serve
// and the snapshot's age on the request trace ctx carries. How old is
// too old is the caller's call: the meta carries the age.
func (r *ResilientClient) staleSnapshot(ctx context.Context, now time.Time) (*heldSnapshot, SnapshotMeta, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.held == nil {
		return nil, SnapshotMeta{}, false
	}
	age := now.Sub(r.heldAt)
	r.ctr.StaleServes++
	r.mStale.Inc()
	obs.Mark(ctx, "directory", "cache-serve", age.String())
	return r.held, SnapshotMeta{Version: r.held.version, Stale: true, Age: age}, true
}

// Query fetches one ordered pair, degrading to the cached snapshot's
// entry when the server is unreachable.
func (r *ResilientClient) Query(src, dst int) (netmodel.PairPerf, SnapshotMeta, error) {
	return r.QueryContext(context.Background(), src, dst)
}

// QueryContext is Query with context-aware retry backoff.
func (r *ResilientClient) QueryContext(ctx context.Context, src, dst int) (netmodel.PairPerf, SnapshotMeta, error) {
	var (
		pp  netmodel.PairPerf
		ver uint64
	)
	err := r.doCtx(ctx, "query", func(cl *Client) error {
		p, v, e := cl.Query(src, dst)
		if e != nil {
			return e
		}
		pp, ver = p, v
		return nil
	})
	if err == nil {
		return pp, SnapshotMeta{Version: ver}, nil
	}
	if h, meta, ok := r.staleSnapshot(ctx, r.cfg.Clock()); ok {
		if src < 0 || src >= h.perf.N() || dst < 0 || dst >= h.perf.N() {
			return netmodel.PairPerf{}, SnapshotMeta{}, fmt.Errorf("directory: pair (%d,%d) outside cached table", src, dst)
		}
		return h.perf.At(src, dst), meta, nil
	}
	return netmodel.PairPerf{}, SnapshotMeta{}, err
}

// Calibrate pushes one calibration batch with retry and reconnection.
// Writes never degrade: if the server cannot be reached the error is
// returned so the caller knows the feed push was lost (the calibrator
// keeps its state, so the next drain re-derives anything that still
// matters).
func (r *ResilientClient) Calibrate(updates []calib.Update, samples []calib.Sample) (applied, rejected int, version uint64, err error) {
	return r.CalibrateContext(context.Background(), updates, samples)
}

// CalibrateContext is Calibrate with context-aware retry backoff.
func (r *ResilientClient) CalibrateContext(ctx context.Context, updates []calib.Update, samples []calib.Sample) (applied, rejected int, version uint64, err error) {
	err = r.doCtx(ctx, "calibrate", func(cl *Client) error {
		a, rej, v, e := cl.Calibrate(updates, samples)
		if e != nil {
			return e
		}
		applied, rejected, version = a, rej, v
		return nil
	})
	if err != nil {
		return 0, 0, 0, err
	}
	return applied, rejected, version, nil
}

// CalibrateSink adapts a resilient client to the push-function shape
// the comm layer's calibration feed wants (comm.Config.CalibSink): a
// function that publishes one drained update batch. Empty batches are
// a no-op so callers can push unconditionally.
func CalibrateSink(r *ResilientClient) func([]calib.Update) error {
	return func(updates []calib.Update) error {
		if r == nil || len(updates) == 0 {
			return nil
		}
		_, _, _, err := r.Calibrate(updates, nil)
		return err
	}
}

// Version fetches the store's version counter with retry; it does not
// degrade (a stale version number would defeat its purpose).
func (r *ResilientClient) Version() (uint64, error) {
	return r.VersionContext(context.Background())
}

// VersionContext is Version with context-aware retry backoff.
func (r *ResilientClient) VersionContext(ctx context.Context) (uint64, error) {
	var ver uint64
	err := r.doCtx(ctx, "version", func(cl *Client) error {
		v, e := cl.Version()
		if e != nil {
			return e
		}
		ver = v
		return nil
	})
	return ver, err
}

// Source adapts the client to the comm.Source signature. A strict
// source fails when the server is unreachable, letting the
// Communicator's own fallback ladder observe the outage and report its
// health honestly; a non-strict source serves the client's stale cache
// transparently. Either way the returned table is the client's held
// one, shared with every other caller under comm.Source's read-only
// contract: a generation costs one table transfer however many plans
// consult the source.
func (r *ResilientClient) Source(strict bool) func() (*netmodel.Perf, error) {
	return func() (*netmodel.Perf, error) {
		var (
			h   *heldSnapshot
			err error
		)
		if strict {
			h, err = r.fetch(context.Background())
		} else {
			h, _, err = r.fetchOrStale(context.Background())
		}
		if err != nil {
			return nil, err
		}
		return h.perf, nil
	}
}
