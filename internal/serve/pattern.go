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

	"hetsched/internal/comm"
	"hetsched/internal/directory"
	"hetsched/internal/model"
)

// pattern is a plan request that passed every check admission makes of
// it, reduced to what determines its size matrix, defaults applied. It
// is all a flight keeps of the request: building the matrix cannot
// fail, so it is built by whoever turns out to need it.
type pattern struct {
	// key names the matrix: the SHA-256 digest of the fields below in a
	// canonical byte form — an explicit table's compact JSON text, a
	// generated pattern's big-endian words. Two patterns with equal keys
	// describe the same matrix, so under an unchanged directory
	// generation they have the same answer, and the daemon never
	// compares matrices to confirm it.
	key   [sha256.Size]byte
	p     int
	kind  string    // a directory.Pattern* constant; "" when rows is set
	bytes int64     // generated patterns: base message size
	seed  int64     // PatternRandom
	rows  [][]int64 // explicit table, read-only; see Daemon.Plan
}

// admitPattern validates a wire-level plan request for a daemon that
// plans for n processors and derives its key, allocating nothing. The
// processor count is checked first, so a request of any other size
// costs no pass over its table. The key covers every size-determining
// field — explicit tables hash their text, generated patterns hash
// (kind, p, bytes, seed) — with domain separation
// between the two forms, so an explicit table never shares a key with
// the shorthand that would generate it.
func admitPattern(req directory.PlanRequest, n int) (pattern, error) {
	p := req.P
	if len(req.Sizes) > 0 {
		p = len(req.Sizes)
	}
	if p != n {
		return pattern{}, fmt.Errorf("serve: daemon plans for %d processors, request describes %d", n, p)
	}
	if len(req.Sizes) > 0 {
		return admitExplicit(req.Sizes)
	}
	pt := pattern{p: req.P, kind: req.Kind, bytes: req.Bytes, seed: req.Seed}
	if pt.p < 2 {
		return pattern{}, fmt.Errorf("serve: request needs p >= 2 or an explicit sizes matrix (got p=%d)", pt.p)
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

// explicitDomain starts every explicit table's key; generated patterns
// start theirs with "gen|".
const explicitDomain = "explicit|"

// admitExplicit validates and keys a caller-supplied sizes table whose
// row count admitPattern has checked: square, non-negative entries,
// zero diagonal. The key is the SHA-256 digest of explicitDomain and
// the table's compact text, as directory.AppendSizes writes it — the
// text a wire request carries, so tableKey keys that text without
// decoding it. The text is streamed into the hash about 1 KiB at a
// time: rows of up to 146 values never outgrow the buffer.
func admitExplicit(rows [][]int64) (pattern, error) {
	p := len(rows)
	if p < 2 {
		return pattern{}, fmt.Errorf("serve: explicit sizes matrix needs at least 2 rows (got %d)", p)
	}
	h := sha256.New()
	var buf [4096]byte
	b := append(buf[:0], explicitDomain...)
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
		}
		// AppendSizes writes a one-row table as "[" row "]": the first
		// byte is the table's own "[" or the comma before the row, the
		// last is the table's "]" or nothing.
		n := len(b)
		b = directory.AppendSizes(b, rows[i:i+1])
		if i > 0 {
			b[n] = ','
		}
		if i < p-1 {
			b = b[:len(b)-1]
		}
		if len(b) >= 1024 {
			h.Write(b)
			b = b[:0]
		}
	}
	h.Write(b)
	pt := pattern{p: p, rows: rows}
	h.Sum(pt.key[:0])
	return pt, nil
}

// tableKey is the key admitExplicit gives the table whose compact text
// is text. Any other text keys no table admitExplicit passed.
func tableKey(text []byte) (key [sha256.Size]byte) {
	h := sha256.New()
	h.Write([]byte(explicitDomain))
	h.Write(text)
	h.Sum(key[:0])
	return key
}

// patternScratch is one worker's storage for the flights it plans: a
// P×P size matrix every flight is written into, the generator the
// random patterns reseed, and the communicator scratch the cost matrix
// and the plan are made in. Only off-diagonal sizes are ever written,
// so the diagonal stays zero without clearing.
type patternScratch struct {
	sizes *model.Sizes
	rng   *rand.Rand
	plan  *comm.PlanScratch
}

func newPatternScratch(p int) patternScratch {
	return patternScratch{sizes: model.NewSizes(p), rng: rand.New(rand.NewSource(0)), plan: new(comm.PlanScratch)}
}

// build writes the matrix the pattern describes into sc and returns
// it, valid until the next build with the same scratch. The pattern
// must be for sc's processor count. A random pattern reseeds sc.rng,
// which yields the sequence a fresh rand.New(rand.NewSource(seed))
// would.
func (pt pattern) build(sc patternScratch) *model.Sizes {
	s := sc.sizes
	switch pt.kind {
	case directory.PatternUniform:
		for i := 0; i < pt.p; i++ {
			for j := 0; j < pt.p; j++ {
				if i != j {
					s.Set(i, j, pt.bytes)
				}
			}
		}
	case directory.PatternRandom:
		sc.rng.Seed(pt.seed)
		for i := 0; i < pt.p; i++ {
			for j := 0; j < pt.p; j++ {
				if i != j {
					s.Set(i, j, 1+sc.rng.Int63n(pt.bytes))
				}
			}
		}
	case directory.PatternSkew:
		// Row i sends (i+1)·bytes to every peer: a ramp that keeps one
		// processor a clear straggler, useful for exercising non-uniform
		// schedules without a seed.
		for i := 0; i < pt.p; i++ {
			v := pt.bytes * int64(i+1)
			for j := 0; j < pt.p; j++ {
				if i != j {
					s.Set(i, j, v)
				}
			}
		}
	default:
		for i, row := range pt.rows {
			for j, v := range row {
				if i != j {
					s.Set(i, j, v)
				}
			}
		}
	}
	return s
}
