package main

import (
	"context"
	"time"

	"hetsched/internal/comm"
	"hetsched/internal/exec"
	"hetsched/internal/model"
	"hetsched/internal/netmodel"
	"hetsched/internal/sched"
)

// exchangeWL plans and then really performs 8-node total exchanges over
// the in-memory transport: one operation is a fresh transport, one
// Communicator.Execute, and Close. A transport reused for a second
// Execute reports no error and delivers nothing, hence the fresh
// transport and the byte-level check on every operation. An exchange is
// parallel inside (8 senders, 8 receivers), so one client drives it.
type exchangeWL struct {
	cfg    config
	table  *netmodel.Perf
	comm   *comm.Communicator
	sizes  *exchangeSizes
	tally  tally
	ran    []exchanged // drained by check between rounds
	execTR execTrace   // traced run only
}

// exchanged is a finished exchange held back for schedule validation.
type exchanged struct {
	sizes *model.Sizes
	res   *sched.Result
}

// execTrace is what the traced run learns from the executor's seams and
// delivery reports.
type execTrace struct {
	ctr          execCounters
	sink         sampleSink
	payloadBytes int64
	goodputSum   float64 // Σ delivered bytes / report wall, MB/s
	retries      int
	ratioSum     float64 // Σ wall / modeled
}

func newExchangeWL(cfg config) *exchangeWL {
	cfg.clients = 1
	return &exchangeWL{cfg: cfg, table: loopbackTable(cfg.seed, exchangeP)}
}

func (w *exchangeWL) clients() int { return 1 }

func (w *exchangeWL) inputs() string {
	ih := newInputHash()
	ih.perf(w.table)
	g := newExchangeSizes(w.cfg.seed, streamTimed, 0)
	for i := 0; i < hashedDraws; i++ {
		ih.sizes(g.draw())
	}
	return ih.sum()
}

const exchangeWarmup = 48

func (w *exchangeWL) setup() error {
	ccfg := comm.Config{}
	if w.cfg.rec != nil {
		ccfg.Scheduler = tracedScheduler{rec: w.cfg.rec, inner: sched.NewOpenShop()}
	}
	var err error
	if w.comm, err = comm.New(exchangeP, comm.StaticSource(w.table), ccfg); err != nil {
		return err
	}
	w.tally, w.ran = tally{}, nil
	w.sizes = newExchangeSizes(w.cfg.seed, streamWarmup, 0)
	for i := 0; i < exchangeWarmup; i++ {
		w.do()
	}
	w.check()
	if err := w.tally.warmupErr(); err != nil {
		return err
	}
	w.sizes = newExchangeSizes(w.cfg.seed, streamTimed, 0)
	warm := w.tally
	w.tally = tally{plans: warm.plans, ratioSum: warm.ratioSum}
	w.execTR = execTrace{}
	return nil
}

func (w *exchangeWL) teardown() {}

func (w *exchangeWL) total() tally { return w.tally }

func (w *exchangeWL) quality() float64 { return w.tally.ratioSum / float64(w.tally.plans) }

func (w *exchangeWL) round(m *meter, done func() bool) error {
	m.loop(done, func(int) time.Duration { return w.do() })
	return nil
}

// do performs one exchange and returns its latency. Only a report that
// accounts for every byte in one round counts as success.
func (w *exchangeWL) do() time.Duration {
	sizes := w.sizes.draw()
	ecfg := exec.Config{}
	traced := w.cfg.rec != nil
	if traced {
		ecfg.Payload = timedPayload(&w.execTR.ctr, exec.DefaultPayload)
		ecfg.Samples = w.execTR.sink.collect
	}
	start := time.Now()
	mem, err := exec.NewMem(exchangeP)
	var (
		rep *exec.DeliveryReport
		res *sched.Result
	)
	if err == nil {
		var tr exec.Transport = mem
		if traced {
			w.cfg.rec.add("exec.transport_new", start, time.Now(), "")
			tr = countedTransport{Transport: mem, ctr: &w.execTR.ctr}
		}
		rep, res, err = w.comm.ExecuteCtx(context.Background(), tr, sizes, ecfg)
		if cerr := mem.Close(); err == nil {
			err = cerr
		}
	}
	end := time.Now()
	if traced {
		w.cfg.rec.add("exec.exchange", start, end, "")
	}
	w.tally.attempted++
	switch {
	case err != nil:
		w.tally.fail("execute: %v", err)
	case rep.DeliveredBytes != rep.TotalBytes || rep.Rounds != 1 || !rep.Accounted():
		w.tally.fail("delivered %d of %d bytes in %d rounds (accounted %v)",
			rep.DeliveredBytes, rep.TotalBytes, rep.Rounds, rep.Accounted())
	default:
		w.tally.plans++
		w.tally.ratioSum += res.Ratio()
		w.ran = append(w.ran, exchanged{sizes: sizes, res: res})
		if traced {
			w.execTR.payloadBytes += rep.TotalBytes
			w.execTR.goodputSum += float64(rep.DeliveredBytes) / 1e6 / rep.Wall.Seconds()
			w.execTR.retries += rep.Retries
			w.execTR.ratioSum += rep.Ratio()
		}
	}
	return end.Sub(start)
}

// check validates, off the clock, that every executed schedule was a
// total exchange on the matrix it was planned from.
func (w *exchangeWL) check() {
	for _, x := range w.ran {
		m, err := model.Build(w.table, x.sizes)
		if err == nil {
			err = x.res.Schedule.ValidateTotalExchange(m)
		}
		if err != nil {
			w.tally.fail("gate: %v", err)
		}
	}
	w.ran = w.ran[:0]
}

func (w *exchangeWL) finish() error { return nil }
