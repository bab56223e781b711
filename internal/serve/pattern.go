// Package serve implements hetpland, the overload-safe
// planning-as-a-service daemon: a bounded admission queue with
// deadline-aware load shedding, request coalescing onto identical
// in-flight plans, a generation-versioned plan cache, and graceful
// degradation that rides the communicator's fresh→stale→degraded
// ladder when the directory is unreachable. DESIGN.md §12 documents
// the architecture; EXPERIMENTS.md X15 is the overload chaos scenario.
package serve

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"

	"hetsched/internal/directory"
	"hetsched/internal/model"
)

// pattern is a plan request that passed every check admission makes of
// it, reduced to what determines its size matrix, defaults applied. It
// is all a flight keeps of the request: sizes cannot fail, so the
// matrix is built by whoever turns out to need it.
type pattern struct {
	// key names the matrix: the SHA-256 digest of the fields below in a
	// canonical byte form. Two patterns with equal keys describe the
	// same matrix, so under an unchanged directory generation they have
	// the same answer, and the daemon never compares matrices to
	// confirm it.
	key   [sha256.Size]byte
	p     int
	kind  string    // a directory.Pattern* constant; "" when rows is set
	bytes int64     // generated patterns: base message size
	seed  int64     // PatternRandom
	rows  [][]int64 // explicit table, read-only; see Daemon.Plan
}

// admitPattern validates a wire-level plan request and derives its
// key, allocating nothing. The key covers every size-determining field
// — explicit tables hash their off-diagonal values, generated patterns
// hash (kind, p, bytes, seed) — with domain separation between the two
// forms, so an explicit table never shares a key with the shorthand
// that would generate it.
func admitPattern(req directory.PlanRequest, maxP int) (pattern, error) {
	if len(req.Sizes) > 0 {
		return admitExplicit(req.Sizes, maxP)
	}
	pt := pattern{p: req.P, kind: req.Kind, bytes: req.Bytes, seed: req.Seed}
	if pt.p < 2 {
		return pattern{}, fmt.Errorf("serve: request needs p >= 2 or an explicit sizes matrix (got p=%d)", pt.p)
	}
	if pt.p > maxP {
		return pattern{}, fmt.Errorf("serve: p=%d exceeds the daemon's limit of %d", pt.p, maxP)
	}
	if pt.bytes <= 0 {
		pt.bytes = 1 << 10
	}
	switch pt.kind {
	case "":
		pt.kind = directory.PatternUniform
	case directory.PatternUniform, directory.PatternRandom:
	case directory.PatternSkew:
		// The last row sends p·bytes to every peer.
		if pt.bytes > math.MaxInt64/int64(pt.p) {
			return pattern{}, fmt.Errorf("serve: skew pattern overflows: bytes=%d times p=%d exceeds int64", pt.bytes, pt.p)
		}
	default:
		return pattern{}, fmt.Errorf("serve: unknown pattern kind %q", pt.kind)
	}
	var buf [48]byte // "gen|uniform|" is the longest prefix
	b := append(buf[:0], "gen|"...)
	b = append(b, pt.kind...)
	b = append(b, '|')
	b = binary.BigEndian.AppendUint64(b, uint64(pt.p))
	b = binary.BigEndian.AppendUint64(b, uint64(pt.bytes))
	b = binary.BigEndian.AppendUint64(b, uint64(pt.seed))
	pt.key = sha256.Sum256(b)
	return pt, nil
}

// admitExplicit validates and keys a caller-supplied sizes table:
// square, within the daemon's processor limit, non-negative entries,
// zero diagonal.
func admitExplicit(rows [][]int64, maxP int) (pattern, error) {
	p := len(rows)
	if p < 2 {
		return pattern{}, fmt.Errorf("serve: explicit sizes matrix needs at least 2 rows (got %d)", p)
	}
	if p > maxP {
		return pattern{}, fmt.Errorf("serve: explicit sizes matrix has %d rows, exceeding the daemon's limit of %d", p, maxP)
	}
	h := sha256.New()
	var buf [1024]byte // the words of the key, hashed a bufferful at a time
	b := append(buf[:0], "explicit|"...)
	b = binary.BigEndian.AppendUint64(b, uint64(p))
	for i, row := range rows {
		if len(row) != p {
			return pattern{}, fmt.Errorf("serve: sizes row %d has %d entries, want %d", i, len(row), p)
		}
		for j, v := range row {
			if i == j {
				if v != 0 {
					return pattern{}, fmt.Errorf("serve: sizes diagonal entry (%d,%d) must be 0, got %d", i, j, v)
				}
				continue
			}
			if v < 0 {
				return pattern{}, fmt.Errorf("serve: sizes entry (%d,%d) is negative: %d", i, j, v)
			}
			if len(b)+8 > cap(b) {
				if _, err := h.Write(b); err != nil {
					return pattern{}, fmt.Errorf("serve: hashing sizes: %w", err)
				}
				b = b[:0]
			}
			b = binary.BigEndian.AppendUint64(b, uint64(v))
		}
	}
	if _, err := h.Write(b); err != nil {
		return pattern{}, fmt.Errorf("serve: hashing sizes: %w", err)
	}
	pt := pattern{p: p, rows: rows}
	h.Sum(pt.key[:0])
	return pt, nil
}

// sizes builds the matrix the pattern describes.
func (pt pattern) sizes() *model.Sizes {
	entry := func(i, j int) int64 { return pt.rows[i][j] }
	switch pt.kind {
	case directory.PatternUniform:
		entry = func(int, int) int64 { return pt.bytes }
	case directory.PatternRandom:
		rng := rand.New(rand.NewSource(pt.seed))
		entry = func(int, int) int64 { return 1 + rng.Int63n(pt.bytes) }
	case directory.PatternSkew:
		// Row i sends (i+1)·bytes to every peer: a ramp that keeps one
		// processor a clear straggler, useful for exercising non-uniform
		// schedules without a seed.
		entry = func(i, _ int) int64 { return pt.bytes * int64(i+1) }
	}
	s := model.NewSizes(pt.p)
	for i := 0; i < pt.p; i++ {
		for j := 0; j < pt.p; j++ {
			if i != j {
				s.Set(i, j, entry(i, j))
			}
		}
	}
	return s
}
