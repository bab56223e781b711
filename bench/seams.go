package main

import (
	"net"
	"sync/atomic"
	"time"

	"hetsched/internal/calib"
	"hetsched/internal/comm"
	"hetsched/internal/exec"
	"hetsched/internal/model"
	"hetsched/internal/netmodel"
	"hetsched/internal/sched"
	"hetsched/internal/serve"
)

// The traced run sees inside the program only through seams the program
// already offers: function-typed or interface-typed configuration that a
// decorator can wrap. Every decorator forwards arguments and results
// untouched and records a span (or bumps a counter) around the call.

// tracedSource wraps the communicator's network source: one span per
// directory snapshot.
func tracedSource(rec *recorder, src comm.Source) comm.Source {
	return func() (*netmodel.Perf, error) {
		start := time.Now()
		p, err := src()
		rec.add("directory.snapshot", start, time.Now(), "")
		return p, err
	}
}

// tracedGen wraps the daemon's generation probe.
func tracedGen(rec *recorder, gen serve.GenFunc) serve.GenFunc {
	return func() (uint64, error) {
		start := time.Now()
		v, err := gen()
		rec.add("directory.gen_probe", start, time.Now(), "")
		return v, err
	}
}

// tracedScheduler wraps the communicator's scheduler. Name is
// forwarded, so plans carry the same algorithm string as undecorated
// ones.
type tracedScheduler struct {
	rec   *recorder
	inner sched.Scheduler
}

func (t tracedScheduler) Name() string { return t.inner.Name() }

func (t tracedScheduler) Schedule(m *model.Matrix) (*sched.Result, error) {
	start := time.Now()
	r, err := t.inner.Schedule(m)
	t.rec.add("sched.schedule", start, time.Now(), "")
	return r, err
}

// execCounters is what the executor's seams count. Node goroutines run
// concurrently, so these are busy-time sums and totals, not spans.
type execCounters struct {
	dials     atomic.Int64
	wireBytes atomic.Int64 // both directions, counted at the dialing end
	payloadNS atomic.Int64 // time inside the payload generator, summed over nodes
	payloads  atomic.Int64
}

// countedTransport wraps an exec.Transport: it counts dials and the
// bytes that cross each dialed connection.
type countedTransport struct {
	exec.Transport
	ctr *execCounters
}

func (t countedTransport) Dial(src, dst int) (net.Conn, error) {
	c, err := t.Transport.Dial(src, dst)
	if err != nil {
		return nil, err
	}
	t.ctr.dials.Add(1)
	return countedConn{Conn: c, ctr: t.ctr}, nil
}

type countedConn struct {
	net.Conn
	ctr *execCounters
}

func (c countedConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.ctr.wireBytes.Add(int64(n))
	return n, err
}

func (c countedConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.ctr.wireBytes.Add(int64(n))
	return n, err
}

// timedPayload wraps the executor's payload generator, which both the
// sender and the verifying receiver call.
func timedPayload(ctr *execCounters, inner exec.PayloadFunc) exec.PayloadFunc {
	return func(src, dst int, size int64) []byte {
		start := time.Now()
		b := inner(src, dst, size)
		ctr.payloadNS.Add(int64(time.Since(start)))
		ctr.payloads.Add(1)
		return b
	}
}

// sampleSink collects the executor's per-transfer measurements, one
// batch per exchange, for the calibrator probes.
type sampleSink struct{ batches [][]calib.Sample }

func (s *sampleSink) collect(batch []calib.Sample) {
	s.batches = append(s.batches, append([]calib.Sample(nil), batch...))
}
