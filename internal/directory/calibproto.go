package directory

import (
	"fmt"

	"hetsched/internal/calib"
	"hetsched/internal/wire"
)

// Calibration wire protocol: the closed-loop feed path by which
// measured transfer performance flows back into the directory. It
// rides the same newline-delimited JSON framing as the rest of the
// directory protocol, with one op:
//
//	→ {"op":"calibrate","updates":[{"src":0,"dst":3,"latency":0.012,
//	   "bandwidth":250000,"confidence":0.81,"samples":12}]}
//	← {"ok":true,"version":9,"applied":1}
//	→ {"op":"calibrate","samples":[{"src":0,"dst":3,"bytes":65536,
//	   "seconds":0.27,"outcome":"delivered"}]}
//	← {"ok":true,"version":9,"applied":0,"rejected":0}
//
// A request may carry fitted Updates (the normal path: the executor's
// side ran a calib.Calibrator and pushes only estimates that cleared
// its confidence gate), raw Samples (for a server-side calibrator
// attached with Server.SetCalibrator), or both. Every entry passes
// bounds validation at this boundary regardless of what the sender
// claims — the directory is the system's shared truth, so it re-checks
// rather than trusts.

// OpCalibrate is the calibration-feed op name.
const OpCalibrate = "calibrate"

// CalibRequest is one calibration-feed request line.
type CalibRequest struct {
	Op string `json:"op"`
	// Updates are fitted per-pair estimates to fold into the store.
	// Entries that fail bounds validation are counted in the response's
	// Rejected and skipped; they never poison the table.
	Updates []calib.Update `json:"updates,omitempty"`
	// Samples are raw transfer measurements for a server-side
	// calibrator (Server.SetCalibrator). Servers without one count them
	// in Rejected rather than erroring, so a mixed fleet stays
	// compatible.
	Samples []calib.Sample `json:"samples,omitempty"`
}

// ParseCalibRequest decodes one calibration-request wire line.
func ParseCalibRequest(line []byte) (CalibRequest, error) {
	var req CalibRequest
	if err := wire.DecodeLine(line, &req); err != nil {
		return CalibRequest{}, fmt.Errorf("malformed calibrate request: %w", err)
	}
	return req, nil
}

// EncodeCalibRequest renders a calibration request as one wire line.
func EncodeCalibRequest(req CalibRequest) ([]byte, error) {
	b, err := wire.EncodeLine(req)
	if err != nil {
		return nil, fmt.Errorf("encode calibrate request: %w", err)
	}
	return b, nil
}
