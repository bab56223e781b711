package comm

import (
	"context"

	"hetsched/internal/exec"
	"hetsched/internal/model"
	"hetsched/internal/sched"
)

// Execute plans a total exchange through the fallback ladder and then
// actually moves the bytes: the plan is handed to a data-plane
// executor (internal/exec) running over the given transport, which
// honors the timing diagram under the port model, retries transient
// failures, and — when a node dies mid-exchange — replans the residual
// among survivors through this communicator's schedulers. It returns
// the executor's byte-level delivery report alongside the plan it
// executed.
//
// The executor's Metrics default to the communicator's when unset. Its
// Clock deliberately does not: communicator clocks are often fake
// (staleness tests, simulations), while transfer deadlines must track
// the real wall clock the transport I/O lives on. When
// ecfg.Replan is unset, residual replans route through the ladder too:
// the residual is planned on the survivor-restricted matrix with the
// configured scheduler's partial variant.
func (c *Communicator) Execute(tr exec.Transport, sizes *model.Sizes, ecfg exec.Config) (*exec.DeliveryReport, *sched.Result, error) {
	return c.ExecuteCtx(context.Background(), tr, sizes, ecfg)
}

// ExecuteCtx is Execute carrying request-scoped trace correlation: the
// planning pass and every exec round/transfer land on the request's
// span tree when ctx holds an obs.ReqTrace, and the delivery report is
// tagged with the trace ID. The executor's Flight recorder also
// defaults to the communicator's.
func (c *Communicator) ExecuteCtx(ctx context.Context, tr exec.Transport, sizes *model.Sizes, ecfg exec.Config) (*exec.DeliveryReport, *sched.Result, error) {
	m, h, err := c.snapshotMatrix(sizes, new(model.Matrix))
	if err != nil {
		return nil, nil, err
	}
	r, err := c.schedule(ctx, m, h, "execute")
	if err != nil {
		return nil, nil, err
	}
	c.noteServed(ctx, h)
	r = tagResult(r, h)

	if ecfg.Metrics == nil {
		ecfg.Metrics = c.cfg.Metrics
	}
	if ecfg.Flight == nil {
		ecfg.Flight = c.cfg.Flight
	}
	if ecfg.Samples == nil && c.cfg.Calibrator != nil {
		// Close the measurement loop: the executor times every transfer
		// and hands the batch to the calibrator after the exchange. A
		// caller-provided Samples hook wins — it can tee to the
		// calibrator itself if it wants both.
		ecfg.Samples = c.feedCalibration
	}
	if ecfg.Replan == nil {
		ecfg.Replan = func(m *model.Matrix, residual sched.Pattern, alive func(int) bool) (*sched.Result, error) {
			return sched.ReplanResidual(m, residual, alive)
		}
	}
	ex, err := exec.New(tr, ecfg)
	if err != nil {
		return nil, nil, err
	}
	rep, err := ex.Run(ctx, r, m, sizes)
	if err != nil {
		return nil, r, err
	}
	return rep, r, nil
}
