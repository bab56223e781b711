// Package wire is the one JSON-line transport under both daemons. The
// directory service (internal/directory) and the plan service
// (internal/serve) speak different ops over the same framing — one JSON
// object per newline-terminated line, one response line per request
// line — and everything about that framing that is not an op lives
// here: the server lifecycle (Server), the client round trip (Client),
// and the line codec the exec data plane's frame headers share.
package wire

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// maxLine bounds a line in either direction; a longer one is a corrupt
// or hostile stream and ends its connection.
const maxLine = 1 << 22

func newScanner(r io.Reader) *bufio.Scanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), maxLine)
	return sc
}

// EncodeLine renders v as one newline-terminated JSON wire line.
func EncodeLine(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("encode line: %w", err)
	}
	return append(b, '\n'), nil
}

// DecodeLine parses one JSON wire line into v; a trailing newline is
// tolerated.
func DecodeLine(line []byte, v any) error { return json.Unmarshal(line, v) }
