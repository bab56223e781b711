package directory

import (
	"bytes"
	"testing"
)

// FuzzProtocolDecode exercises the wire-protocol decoders: no panics
// on arbitrary lines, and any accepted request or response must
// round-trip through encode and back unchanged — the property the
// server's read path and the client's reply path both depend on.
func FuzzProtocolDecode(f *testing.F) {
	f.Add(`{"op":"query","src":0,"dst":3}`)
	f.Add(`{"op":"snapshot"}`)
	f.Add(`{"op":"snapshot","if_version":7}`)
	f.Add(`{"op":"snapshot","if_version":0}`) // a real version, not "absent"
	f.Add(`{"op":"snapshot","if_version":null}`)
	f.Add(`{"op":"snapshot","if_version":-1}`)
	f.Add(`{"op":"snapshot","if_version":18446744073709551615}`)
	f.Add(`{"op":"calibrate","updates":[{"src":0,"dst":3,"latency":0.02,"bandwidth":1e6}]}`)
	f.Add(`{"op":"version"}`)
	f.Add(`{"ok":true,"version":7,"latency":0.012,"bandwidth":255500}`)
	f.Add(`{"ok":true,"version":7,"n":2,"names":["a","b"],"lat_table":[[0,1],[1,0]],"bw_table":[[0,1],[1,0]]}`)
	f.Add(`{"ok":true,"version":7,"not_modified":true}`)
	f.Add(`{"ok":true,"not_modified":true}`)
	f.Add(`{"ok":true,"version":7,"not_modified":true,"n":2,"lat_table":[[0,1],[1,0]],"bw_table":[[0,1],[1,0]]}`)
	f.Add(`{"ok":false,"error":"unknown op \"x\""}`)
	f.Add(`{`)
	f.Add(``)
	f.Add(`null`)
	f.Add(`[1,2,3]`)
	f.Add(`{"op":"query","src":1e308,"dst":-5}`)
	// Plan-service frames (planproto.go) ride the same framing.
	f.Add(`{"op":"plan","id":7,"p":8,"kind":"uniform","bytes":1024,"deadline_ms":500}`)
	f.Add(`{"op":"plan","p":4,"kind":"random","bytes":1048576,"seed":42}`)
	f.Add(`{"op":"plan","sizes":[[0,1],[2,0]]}`)
	f.Add(`{"op":"serve_stats"}`)
	f.Add(`{"ok":true,"id":7,"status":"served","health":"ok","generation":3,"algorithm":"openshop","t_max":0.012,"t_lb":0.009,"steps":8}`)
	f.Add(`{"ok":false,"status":"shed","retry_after_ms":40,"error":"serve: queue full"}`)
	f.Add(`{"ok":false,"status":"expired","retry_after_ms":25}`)
	f.Add(`{"ok":true,"status":"served","stats":{"queue_depth":2,"in_flight":1,"admitted":9}}`)
	f.Fuzz(func(t *testing.T, line string) {
		if req, err := parseRequest([]byte(line)); err == nil {
			wire, err := encodeRequest(req)
			if err != nil {
				t.Fatalf("accepted request failed to encode: %v", err)
			}
			back, err := parseRequest(wire)
			if err != nil {
				t.Fatalf("encoded request failed to re-parse: %v", err)
			}
			if !sameRequest(back, req) {
				t.Fatalf("request round trip changed %+v to %+v", req, back)
			}
		}
		if resp, err := parseResponse([]byte(line)); err == nil {
			// A decoded empty table re-encodes as an omitted field, so
			// compare in canonical wire form: one encode round must be a
			// fixed point.
			wire, err := appendResponse(nil, resp)
			if err != nil {
				t.Fatalf("accepted response failed to encode: %v", err)
			}
			back, err := parseResponse(wire)
			if err != nil {
				t.Fatalf("encoded response failed to re-parse: %v", err)
			}
			wire2, err := appendResponse(nil, back)
			if err != nil {
				t.Fatalf("re-parsed response failed to encode: %v", err)
			}
			if !bytes.Equal(wire, wire2) {
				t.Fatalf("response round trip changed %s to %s", wire, wire2)
			}
		}
		// The plan-service frames share the framing, so they are held to
		// the same properties: no panics, and one encode is a fixed point
		// (slices and the optional stats payload make strict equality too
		// strong for requests as well — nil vs empty slices both encode
		// as an omitted field).
		if req, err := ParsePlanRequest([]byte(line)); err == nil {
			wire, err := EncodePlanRequest(req)
			if err != nil {
				t.Fatalf("accepted plan request failed to encode: %v", err)
			}
			back, err := ParsePlanRequest(wire)
			if err != nil {
				t.Fatalf("encoded plan request failed to re-parse: %v", err)
			}
			wire2, err := EncodePlanRequest(back)
			if err != nil {
				t.Fatalf("re-parsed plan request failed to encode: %v", err)
			}
			if !bytes.Equal(wire, wire2) {
				t.Fatalf("plan request round trip changed %s to %s", wire, wire2)
			}
		}
		if resp, err := ParsePlanResponse([]byte(line)); err == nil {
			wire, err := EncodePlanResponse(resp)
			if err != nil {
				t.Fatalf("accepted plan response failed to encode: %v", err)
			}
			back, err := ParsePlanResponse(wire)
			if err != nil {
				t.Fatalf("encoded plan response failed to re-parse: %v", err)
			}
			wire2, err := EncodePlanResponse(back)
			if err != nil {
				t.Fatalf("re-parsed plan response failed to encode: %v", err)
			}
			if !bytes.Equal(wire, wire2) {
				t.Fatalf("plan response round trip changed %s to %s", wire, wire2)
			}
		}
	})
}

// FuzzCalibProtoDecode holds the calibration-feed frames
// (calibproto.go) to the wire properties of FuzzProtocolDecode: no
// panics on arbitrary lines, and one encode of any accepted request
// must be a fixed point (the Updates and Samples slices make strict
// equality too strong — nil and empty both encode as an omitted
// field). Responses to OpCalibrate reuse the response union, already
// covered by FuzzProtocolDecode.
func FuzzCalibProtoDecode(f *testing.F) {
	f.Add(`{"op":"calibrate","updates":[{"src":0,"dst":3,"latency":0.012,"bandwidth":250000,"confidence":0.81,"samples":12}]}`)
	f.Add(`{"op":"calibrate","samples":[{"src":0,"dst":3,"bytes":65536,"seconds":0.27,"outcome":"delivered"}]}`)
	f.Add(`{"op":"calibrate","samples":[{"src":1,"dst":2,"bytes":1024,"seconds":4.2,"retries":3,"outcome":"rerouted"}]}`)
	f.Add(`{"op":"calibrate","updates":[],"samples":[]}`)
	f.Add(`{"op":"calibrate","updates":[{"src":-1,"dst":99,"latency":-5,"bandwidth":0,"confidence":2}]}`)
	f.Add(`{"op":"calibrate"}`)
	f.Add(`{`)
	f.Add(``)
	f.Add(`null`)
	f.Add(`[1,2,3]`)
	f.Fuzz(func(t *testing.T, line string) {
		req, err := ParseCalibRequest([]byte(line))
		if err != nil {
			return
		}
		wire, err := EncodeCalibRequest(req)
		if err != nil {
			t.Fatalf("accepted calibrate request failed to encode: %v", err)
		}
		back, err := ParseCalibRequest(wire)
		if err != nil {
			t.Fatalf("encoded calibrate request failed to re-parse: %v", err)
		}
		wire2, err := EncodeCalibRequest(back)
		if err != nil {
			t.Fatalf("re-parsed calibrate request failed to encode: %v", err)
		}
		if !bytes.Equal(wire, wire2) {
			t.Fatalf("calibrate request round trip changed %s to %s", wire, wire2)
		}
	})
}
