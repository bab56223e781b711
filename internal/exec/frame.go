package exec

import (
	"bufio"
	"fmt"
	"io"
	"sync"

	"hetsched/internal/wire"
)

// Wire format. Each connection carries exactly one transfer attempt:
// the sender writes a header — one newline-terminated JSON line, the
// same framing primitive as the directory and plan protocols
// (wire.EncodeLine) — whose Size field length-prefixes the raw
// payload bytes that follow. The receiver answers with one JSON ack
// line and the connection is done.
//
//	→ {"xid":3,"src":0,"dst":4,"round":1,"attempt":0,"size":1024}\n
//	→ <1024 raw payload bytes>
//	← {"ok":true}\n            (or {"ok":true,"dup":true}, or
//	                            {"ok":false,"error":"..."})

// maxHeaderLine bounds a header or ack line; anything longer is a
// corrupt or hostile stream.
const maxHeaderLine = 4096

// frameHeader announces one transfer attempt.
type frameHeader struct {
	Exchange uint64 `json:"xid"`
	Src      int    `json:"src"`
	Dst      int    `json:"dst"`
	Round    int    `json:"round"`
	Attempt  int    `json:"attempt"`
	Size     int64  `json:"size"`
}

// frameAck is the receiver's verdict on one attempt. Dup marks a
// retry of a payload the receive ledger had already applied — the
// sender treats it as success, the receiver did not apply it twice.
type frameAck struct {
	OK    bool   `json:"ok"`
	Dup   bool   `json:"dup,omitempty"`
	Error string `json:"error,omitempty"`
}

// writeLine encodes v as one JSON wire line and writes it.
func writeLine(w io.Writer, v any) error {
	b, err := wire.EncodeLine(v)
	if err != nil {
		return err
	}
	if _, err := w.Write(b); err != nil {
		return fmt.Errorf("exec: write frame line: %w", err)
	}
	return nil
}

// readLine reads one newline-terminated wire line into v.
func readLine(br *bufio.Reader, v any) error {
	line, err := br.ReadSlice('\n')
	if err != nil {
		if err == bufio.ErrBufferFull {
			return fmt.Errorf("exec: frame line exceeds %d bytes", maxHeaderLine)
		}
		return fmt.Errorf("exec: read frame line: %w", err)
	}
	if err := wire.DecodeLine(line, v); err != nil {
		return fmt.Errorf("exec: malformed frame line: %w", err)
	}
	return nil
}

// frameReaders recycles the line + payload readers, one per end of
// every attempt, with the buffer sized to the header bound.
var frameReaders = sync.Pool{
	New: func() any { return bufio.NewReaderSize(nil, maxHeaderLine) },
}

// getFrameReader wraps a connection for line + payload reads; pair
// with putFrameReader once the connection is done.
func getFrameReader(r io.Reader) *bufio.Reader {
	br := frameReaders.Get().(*bufio.Reader)
	br.Reset(r)
	return br
}

// putFrameReader drops the reader's hold on its connection and
// recycles it.
func putFrameReader(br *bufio.Reader) {
	br.Reset(nil)
	frameReaders.Put(br)
}
