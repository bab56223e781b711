package serve

import (
	"context"
	"errors"
	"fmt"
	"net"
	"time"

	"hetsched/internal/directory"
	"hetsched/internal/wire"
)

// ServerConfig tunes the TCP front in front of a Daemon.
type ServerConfig struct {
	// IdleTimeout drops connections that send no request for this long;
	// slow or dead clients must never pin a serving goroutine. 0 selects
	// 2 minutes.
	IdleTimeout time.Duration
	// WriteTimeout bounds each response write; a client that stops
	// reading is disconnected rather than back-pressuring the daemon.
	// 0 selects 10 seconds.
	WriteTimeout time.Duration
	// WrapConn, when set, wraps every accepted connection — the chaos
	// seam for fault injectors, mirroring directory.Server.
	WrapConn func(net.Conn) net.Conn
}

func (cfg ServerConfig) withDefaults() ServerConfig {
	if cfg.IdleTimeout <= 0 {
		cfg.IdleTimeout = 2 * time.Minute
	}
	if cfg.WriteTimeout <= 0 {
		cfg.WriteTimeout = 10 * time.Second
	}
	return cfg
}

// Server is the TCP front of the planning service: exactly one response
// line per request line. Admission lives in the Daemon; the connection
// lifecycle and its idle and write timeouts are wire.Server's.
type Server struct {
	daemon *Daemon
	w      wire.Server
}

// NewServer wraps a daemon in a TCP front.
func NewServer(d *Daemon, cfg ServerConfig) *Server {
	cfg = cfg.withDefaults()
	s := &Server{daemon: d}
	s.w.Handler = s.handleLine
	s.w.IdleTimeout = cfg.IdleTimeout
	s.w.WriteTimeout = cfg.WriteTimeout
	s.w.Clock = wallClock
	s.w.WrapConn = cfg.WrapConn
	s.w.OnAccept = d.tel.conn
	return s
}

// Listen binds addr and starts accepting; it returns the bound address
// (useful with ":0") without blocking. Traces arrive per request on
// the wire (PlanRequest.Trace), not at bind time.
func (s *Server) Listen(addr string) (string, error) {
	if s == nil {
		return "", fmt.Errorf("serve: nil server")
	}
	return s.w.Listen(addr)
}

// handleLine answers one request line with one response line,
// appended to the connection's buffer dst.
func (s *Server) handleLine(dst, line []byte) ([]byte, bool) {
	out, err := directory.AppendPlanResponse(dst, s.answer(line))
	return out, err == nil
}

// answer resolves one request line. A plan whose table arrived as
// compact text is first looked up under the text's own key, with
// nothing decoded but the fields around it (directory.ParsePlanHead,
// Daemon.request); whatever is not answered there is decoded in full.
func (s *Server) answer(line []byte) directory.PlanResponse {
	req, table, rows, ok := directory.ParsePlanHead(line)
	if ok && table != nil && req.Op == directory.OpPlan && rows == s.daemon.comm.N() {
		// The wire carries the trace ID (req.Trace); the daemon binds it
		// onto the context in beginRequest.
		if resp, hit := s.daemon.request(context.Background(), req, table); hit {
			return resp
		}
	}
	if !ok || table != nil {
		// The head decode declined the line or left its table unread.
		var err error
		if req, err = directory.ParsePlanRequest(line); err != nil {
			return directory.PlanResponse{Error: err.Error()}
		}
	}
	switch req.Op {
	case directory.OpPlan:
		return s.daemon.Plan(context.Background(), req)
	case directory.OpServeStats:
		resp := s.daemon.StatsResponse()
		resp.ID = req.ID
		return resp
	}
	return directory.PlanResponse{ID: req.ID, Error: fmt.Sprintf("serve: unknown op %q", req.Op)}
}

// Addr returns the bound listen address, or "" before Listen.
func (s *Server) Addr() string {
	if s == nil {
		return ""
	}
	return s.w.Addr()
}

// Drain shuts the service down gracefully. First the daemon drains:
// workers finish the queued backlog under its drain timeout, leftovers
// and new requests are answered as draining, and connections stay up so
// those answers reach their clients. Then the edge is wound down under
// grace (wire.Server.Drain). No request read off a socket goes
// unanswered. Safe to call alongside or after Close.
func (s *Server) Drain(grace time.Duration) error {
	if s == nil {
		return errors.New("serve: nil server")
	}
	s.daemon.Shutdown()
	return s.w.Drain(grace)
}

// Close shuts the daemon down, so no handler stays parked on a worker,
// then severs everything and joins the serving goroutines. Idempotent.
func (s *Server) Close() error {
	if s == nil {
		return nil
	}
	s.daemon.Shutdown()
	return s.w.Close()
}
