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
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// maxLine bounds a line in either direction; a longer one is a corrupt
// or hostile stream and ends its connection.
const maxLine = 1 << 22

func newScanner(r io.Reader) *bufio.Scanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), maxLine)
	return sc
}

// lineEncoder is EncodeLine's pooled scratch: an encoder that writes
// into its own buffer.
type lineEncoder struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var lineEncoders = sync.Pool{New: func() any {
	le := new(lineEncoder)
	le.enc = json.NewEncoder(&le.buf)
	return le
}}

// EncodeLine renders v as one newline-terminated JSON wire line, the
// bytes json.Marshal gives plus the newline, in one allocation whatever
// its length: AppendLine into a nil slice.
func EncodeLine(v any) ([]byte, error) { return AppendLine(nil, v) }

// AppendLine appends v's wire line, as EncodeLine renders it, to dst
// and returns the extended slice; on an error dst comes back as it was.
// The line is built in pooled scratch and copied once into dst, so a
// dst with room allocates nothing. (Appending the newline to
// json.Marshal's result would reallocate whenever the JSON is exactly a
// malloc size class long.)
func AppendLine(dst []byte, v any) ([]byte, error) {
	le := lineEncoders.Get().(*lineEncoder)
	defer lineEncoders.Put(le)
	le.buf.Reset()
	if err := le.enc.Encode(v); err != nil {
		return dst, fmt.Errorf("encode line: %w", err)
	}
	return append(dst, le.buf.Bytes()...), nil
}

// DecodeLine parses one JSON wire line into v; a trailing newline is
// tolerated.
func DecodeLine(line []byte, v any) error { return json.Unmarshal(line, v) }
