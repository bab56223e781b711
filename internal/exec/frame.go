package exec

import (
	"encoding/binary"
	"fmt"
)

// Wire format. Each connection carries exactly one transfer attempt:
// the sender writes a fixed-size binary header whose size field
// length-prefixes the raw payload bytes that follow, and the receiver
// answers with a one-byte ack code. Integers are big-endian.
//
//	offset  bytes  field
//	 0      1      version (frameVersion)
//	 1      8      exchange id
//	 9      4      src
//	13      4      dst
//	17      4      round
//	21      4      attempt
//	25      8      payload size
//	→ <size raw payload bytes>
//	← <one ackCode byte>
//
// The leading version byte turns any other framing (a JSON line starts
// with '{') into a refusal rather than a header decoded from garbage.
const (
	frameVersion = 1
	frameLen     = 33
)

// frameHeader announces one transfer attempt.
type frameHeader struct {
	xid                      uint64
	src, dst, round, attempt uint32
	size                     uint64
}

// put encodes h into b.
func (h *frameHeader) put(b *[frameLen]byte) {
	b[0] = frameVersion
	binary.BigEndian.PutUint64(b[1:], h.xid)
	binary.BigEndian.PutUint32(b[9:], h.src)
	binary.BigEndian.PutUint32(b[13:], h.dst)
	binary.BigEndian.PutUint32(b[17:], h.round)
	binary.BigEndian.PutUint32(b[21:], h.attempt)
	binary.BigEndian.PutUint64(b[25:], h.size)
}

// parseFrame decodes a header; ok is false for a frame of another
// version, whose fields mean nothing.
func parseFrame(b *[frameLen]byte) (h frameHeader, ok bool) {
	if b[0] != frameVersion {
		return frameHeader{}, false
	}
	return frameHeader{
		xid:     binary.BigEndian.Uint64(b[1:]),
		src:     binary.BigEndian.Uint32(b[9:]),
		dst:     binary.BigEndian.Uint32(b[13:]),
		round:   binary.BigEndian.Uint32(b[17:]),
		attempt: binary.BigEndian.Uint32(b[21:]),
		size:    binary.BigEndian.Uint64(b[25:]),
	}, true
}

// ackCode is the receiver's verdict on one attempt. The reason behind
// a corrupt or refused verdict stays with the receiver, as an obs mark
// on the exchange's trace.
type ackCode byte

const (
	ackOK      ackCode = 1 + iota // verified and applied
	ackDup                        // verified; the ledger had already applied the pair, so it was not applied again
	ackCorrupt                    // the payload differs from the pair's bytes
	ackRefused                    // the header names no transfer of this exchange to this node, or the payload came up short
)

var ackNames = [...]string{ackOK: "ok", ackDup: "dup", ackCorrupt: "corrupt", ackRefused: "refused"}

func (a ackCode) String() string {
	if a != 0 && int(a) < len(ackNames) {
		return ackNames[a]
	}
	return fmt.Sprintf("ack 0x%02x", byte(a))
}
