package directory

import (
	"fmt"

	"hetsched/internal/wire"
)

// Wire protocol: newline-delimited JSON over TCP. Each request is one
// JSON object on one line; the server answers with one JSON object on
// one line. Units on the wire are SI (seconds, bytes/second), the same
// as in memory.
//
//	→ {"op":"query","src":0,"dst":3}
//	← {"ok":true,"version":7,"latency":0.012,"bandwidth":255500}
//	→ {"op":"snapshot"}
//	← {"ok":true,"version":7,"n":5,"names":[...],"lat_table":[[...]],"bw_table":[[...]]}
//	→ {"op":"snapshot","if_version":7}
//	← {"ok":true,"version":7,"not_modified":true}
//	→ {"op":"calibrate","updates":[{"src":0,"dst":3,"latency":0.02,"bandwidth":1e6}]}
//	← {"ok":true,"version":8,"applied":1}
//	→ {"op":"version"}
//	← {"ok":true,"version":8}
//
// calibrate (calibproto.go) is the only op that writes the table.
// Unknown ops and malformed requests get {"ok":false,"error":"..."}.
//
// A snapshot request may carry if_version, the version of the table the
// client already holds from this connection. While the store is still
// at that version the server answers not_modified and sends no table;
// otherwise — and always when if_version is absent — it sends the whole
// table. if_version 0 is a real version (a store that has never been
// updated), distinct from absent. The version only identifies a table
// within one store, so a client may send if_version only on the
// connection the table it holds arrived on: after a redial the peer may
// be another server whose counter happens to read the same. A full
// table is always an acceptable reply, so a server that predates the
// field (and ignores it, like every unknown field) interoperates. A
// not_modified that was not asked for, or that names a version other
// than the one asked about, is a framing fault: the client drops the
// connection, as it does for an unparseable line.

// request is the union of all request shapes.
type request struct {
	Op  string `json:"op"`
	Src int    `json:"src"`
	Dst int    `json:"dst"`
	// IfVersion makes a snapshot conditional; a pointer because version
	// 0 is a valid validator and must not read as absent.
	IfVersion *uint64 `json:"if_version,omitempty"`
}

// response is the union of all response shapes; empty fields are
// omitted on the wire.
type response struct {
	OK        bool        `json:"ok"`
	Error     string      `json:"error,omitempty"`
	Version   uint64      `json:"version,omitempty"`
	N         int         `json:"n,omitempty"`
	Names     []string    `json:"names,omitempty"`
	Latency   float64     `json:"latency,omitempty"`
	Bandwidth float64     `json:"bandwidth,omitempty"`
	LatTable  [][]float64 `json:"lat_table,omitempty"`
	BWTable   [][]float64 `json:"bw_table,omitempty"`
	// NotModified answers a conditional snapshot whose if_version is
	// still current: Version repeats it and no table follows.
	NotModified bool `json:"not_modified,omitempty"`
	// Calibration-feed accounting (OpCalibrate, calibproto.go): how many
	// entries of the request were folded into the store and how many were
	// rejected at the bounds boundary.
	Applied  int `json:"applied,omitempty"`
	Rejected int `json:"rejected,omitempty"`
}

// Protocol op names.
const (
	opQuery    = "query"
	opSnapshot = "snapshot"
	opVersion  = "version"
)

// parseRequest decodes one request line. Unknown JSON fields are
// ignored (forward compatibility); anything that is not a single JSON
// object is rejected with the "malformed request" error the server
// reports verbatim. Both the server's read path and the fuzz harness
// go through this single entry point.
func parseRequest(line []byte) (request, error) {
	var req request
	if err := wire.DecodeLine(line, &req); err != nil {
		return request{}, fmt.Errorf("malformed request: %w", err)
	}
	return req, nil
}

// encodeRequest renders a request as one newline-terminated wire line.
func encodeRequest(req request) ([]byte, error) {
	b, err := wire.EncodeLine(req)
	if err != nil {
		return nil, fmt.Errorf("encode request: %w", err)
	}
	return b, nil
}

// parseResponse decodes one response line.
func parseResponse(line []byte) (response, error) {
	var resp response
	if err := wire.DecodeLine(line, &resp); err != nil {
		return response{}, fmt.Errorf("malformed response: %w", err)
	}
	return resp, nil
}

// appendResponse appends a response's newline-terminated wire line to
// dst.
func appendResponse(dst []byte, resp response) ([]byte, error) {
	b, err := wire.AppendLine(dst, resp)
	if err != nil {
		return dst, fmt.Errorf("encode response: %w", err)
	}
	return b, nil
}
