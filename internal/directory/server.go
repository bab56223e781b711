package directory

import (
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"hetsched/internal/calib"
	"hetsched/internal/netmodel"
	"hetsched/internal/obs"
	"hetsched/internal/wire"
)

// Server exposes a Store over TCP with the JSON-line protocol. The
// connection lifecycle is wire.Server's; this type is the protocol: it
// answers one request line with one response line.
type Server struct {
	store *Store
	w     wire.Server

	calibrator atomic.Pointer[calib.Calibrator]

	// resolved telemetry instruments; all nil when metrics are off.
	mConns   *obs.Counter
	mReqs    map[string]*obs.Counter // by op, plus "invalid"
	mVersion *obs.Gauge
}

// writeTimeout severs a client that stops reading its responses; the
// value serve.ServerConfig.WriteTimeout defaults to.
const writeTimeout = 10 * time.Second

// NewServer wraps a store.
func NewServer(store *Store) *Server {
	s := &Server{store: store}
	s.w.Handler = s.handleLine
	s.w.WriteTimeout = writeTimeout
	s.w.Clock = wallClock
	s.w.OnAccept = func() { s.mConns.Inc() }
	return s
}

// SetIdleTimeout makes the server drop connections that stay silent
// longer than d, so dead clients cannot pin serving goroutines
// forever. Zero (the default) keeps connections open indefinitely.
// Call before Listen.
func (s *Server) SetIdleTimeout(d time.Duration) { s.w.IdleTimeout = d }

// SetMetrics registers the server's instruments — accepted connections,
// handled requests by op, and the store's version gauge — in reg. Call
// before Listen; a nil registry leaves metrics disabled (every hook is
// then a nil-pointer no-op).
func (s *Server) SetMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	s.mConns = reg.Counter(obs.MetricDirectoryServerConns,
		"Connections accepted by the directory server.")
	s.mReqs = map[string]*obs.Counter{}
	for _, op := range []string{opQuery, opSnapshot, countSnapshotUnchanged, opVersion, OpCalibrate, "invalid"} {
		s.mReqs[op] = reg.Counter(obs.MetricDirectoryServerRequests,
			"Requests handled by the directory server, by op; a snapshot answered not_modified counts as snapshot_unchanged, not snapshot.", obs.L("op", op))
	}
	s.mVersion = reg.Gauge(obs.MetricDirectoryStoreVersion,
		"Current version of the directory store.")
	s.mVersion.Set(float64(s.store.Version()))
}

// countSnapshotUnchanged is the request-counter label of a conditional
// snapshot answered not_modified. It is not a wire op: "snapshot" counts
// the requests that were answered with a table, this the ones that were
// not, so the two partition snapshot traffic and their ratio is the
// share of fetches the validator saved.
const countSnapshotUnchanged = "snapshot_unchanged"

// countRequest records one handled request; ops outside the protocol
// count as "invalid".
func (s *Server) countRequest(op string) {
	if s.mReqs == nil {
		return
	}
	c, ok := s.mReqs[op]
	if !ok {
		c = s.mReqs["invalid"]
	}
	c.Inc()
}

// SetCalibrator attaches a server-side calibrator: OpCalibrate
// requests carrying raw Samples are fed through it and whatever
// estimates clear its confidence gate are folded into the store, so
// thin clients can report measurements without running their own
// fitter. Without one, samples are counted as rejected (updates still
// apply). Call before Listen; nil detaches.
func (s *Server) SetCalibrator(cal *calib.Calibrator) { s.calibrator.Store(cal) }

// SetConnWrapper installs a hook applied to every accepted connection
// before serving begins — the seam the chaos harness uses to inject
// drops, stalls, and partial writes (see internal/faults). Call before
// Listen; the wrapper's Close must close the underlying connection.
func (s *Server) SetConnWrapper(wrap func(net.Conn) net.Conn) { s.w.WrapConn = wrap }

// Listen starts accepting connections on addr (e.g. "127.0.0.1:0")
// and returns the bound address. Serving happens on background
// goroutines; call Close to stop.
func (s *Server) Listen(addr string) (string, error) { return s.w.Listen(addr) }

// handleLine resolves one request line to one response line, appended
// to dst. A line that does not parse counts as "invalid", as an unknown
// op does.
func (s *Server) handleLine(dst, line []byte) ([]byte, bool) {
	var resp response
	if req, err := parseRequest(line); err != nil {
		s.countRequest("invalid")
		resp = response{Error: err.Error()}
	} else if req.Op == OpCalibrate {
		// The calibration feed carries slice payloads the scalar
		// request union cannot hold, so the raw line is re-parsed
		// into its own frame type.
		resp = s.handleCalibrate(line)
	} else if resp = s.answer(req); resp.NotModified {
		s.countRequest(countSnapshotUnchanged)
	} else {
		s.countRequest(req.Op)
	}
	out, err := appendResponse(dst, resp)
	return out, err == nil
}

func (s *Server) answer(req request) response {
	switch req.Op {
	case opQuery:
		pp, v, err := s.store.Query(req.Src, req.Dst)
		if err != nil {
			return response{Error: err.Error()}
		}
		s.mVersion.Set(float64(v))
		return response{OK: true, Version: v, Latency: pp.Latency, Bandwidth: pp.Bandwidth}
	case opSnapshot:
		perf, v := s.store.snapshotUnless(req.IfVersion)
		s.mVersion.Set(float64(v))
		if perf == nil {
			return response{OK: true, Version: v, NotModified: true}
		}
		return tableResponse(perf, s.store.Names(), v)
	case opVersion:
		v := s.store.Version()
		s.mVersion.Set(float64(v))
		return response{OK: true, Version: v}
	default:
		return response{Error: fmt.Sprintf("unknown op %q", req.Op)}
	}
}

// tableResponse is the full snapshot reply: perf at version v in the
// wire's two-table form.
func tableResponse(perf *netmodel.Perf, names []string, v uint64) response {
	n := perf.N()
	lat := make([][]float64, n)
	bw := make([][]float64, n)
	for i := 0; i < n; i++ {
		lat[i] = make([]float64, n)
		bw[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			pp := perf.At(i, j)
			lat[i][j] = pp.Latency
			bw[i][j] = pp.Bandwidth
		}
	}
	return response{OK: true, Version: v, N: n, Names: names, LatTable: lat, BWTable: bw}
}

// handleCalibrate serves one OpCalibrate request. Applied counts table
// writes; Rejected counts request entries that did not make it into the
// table — updates that failed the bounds boundary, samples the attached
// calibrator's rejection gauntlet threw out, and samples received by a
// server with no calibrator to fit them.
func (s *Server) handleCalibrate(line []byte) response {
	s.countRequest(OpCalibrate)
	creq, err := ParseCalibRequest(line)
	if err != nil {
		return response{Error: err.Error()}
	}
	applied, rejected, v := s.store.ApplyCalibration(creq.Updates)
	cal := s.calibrator.Load()
	switch {
	case cal != nil && len(creq.Samples) > 0:
		rep := cal.ObserveBatch(creq.Samples)
		rejected += rep.Rejected()
		a, r, v2 := s.store.ApplyCalibration(cal.Updates())
		applied += a
		rejected += r
		v = v2
	case len(creq.Samples) > 0:
		rejected += len(creq.Samples)
	}
	s.mVersion.Set(float64(v))
	return response{OK: true, Version: v, Applied: applied, Rejected: rejected}
}

// Drain closes the listener at once and keeps serving connected clients
// until grace elapses, whatever they do (wire.Server.Drain).
func (s *Server) Drain(grace time.Duration) error { return s.w.Drain(grace) }

// Close severs everything and joins the serving goroutines. Idempotent.
func (s *Server) Close() error { return s.w.Close() }
