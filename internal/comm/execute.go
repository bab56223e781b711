package comm

import (
	"context"

	"hetsched/internal/exec"
	"hetsched/internal/model"
	"hetsched/internal/sched"
)

// ExecuteCtx plans a total exchange through the fallback ladder and
// then actually moves the bytes: the plan is handed to a data-plane
// executor (internal/exec) running over the given transport, which
// honors the timing diagram under the port model, retries transient
// failures, and — when a node dies mid-exchange — replans the residual
// among survivors with ecfg.Replan (the executor's default,
// sched.ReplanResidual, when unset). It returns the executor's
// byte-level delivery report alongside the plan it executed.
//
// When ctx holds an obs.ReqTrace, the planning pass and every exec
// round and transfer land on that request's span tree, and the report
// is tagged with its trace ID. The executor's Metrics and Flight
// default to the communicator's. With a Calibrator configured and
// ecfg.Samples unset, the exchange's measured transfers feed the
// calibrator and its trusted estimates go to CalibSink (calib.go).
func (c *Communicator) ExecuteCtx(ctx context.Context, tr exec.Transport, sizes *model.Sizes, ecfg exec.Config) (*exec.DeliveryReport, *sched.Result, error) {
	m, h, err := c.snapshotMatrix(sizes, new(model.Matrix))
	if err != nil {
		return nil, nil, err
	}
	r, err := c.schedule(ctx, m, h, "execute", nil)
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
		// A caller-provided Samples hook wins: it can tee to the
		// calibrator itself if it wants both.
		ecfg.Samples = c.feedCalibration
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
