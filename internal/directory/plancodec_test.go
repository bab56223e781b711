package directory

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
)

// jsonPlanRequest is the reference the hand codec is held to: what
// ParsePlanRequest was before it had a fast path.
func jsonPlanRequest(line []byte) (PlanRequest, error) {
	var req PlanRequest
	if err := json.Unmarshal(line, &req); err != nil {
		return PlanRequest{}, fmt.Errorf("malformed plan request: %w", err)
	}
	return req, nil
}

// checkPlanRequestCodec holds one line to the codec's contract: the
// fast decoder accepts only what encoding/json accepts and decodes it
// to the same value (nil and empty slices told apart), a rejection
// carries encoding/json's text, and an accepted request encodes to
// json.Marshal's bytes.
func checkPlanRequestCodec(t *testing.T, line []byte) {
	t.Helper()
	want, wantErr := jsonPlanRequest(line)
	if fast, ok := decodeCanonicalPlanRequest(line); ok {
		if wantErr != nil {
			t.Fatalf("fast decoder accepted %q, encoding/json says %v", line, wantErr)
		}
		if !reflect.DeepEqual(fast, want) {
			t.Fatalf("fast decoder read %q as %#v, encoding/json as %#v", line, fast, want)
		}
	}
	got, err := ParsePlanRequest(line)
	if wantErr != nil {
		if err == nil || err.Error() != wantErr.Error() {
			t.Fatalf("ParsePlanRequest(%q) = %v, want error %v", line, err, wantErr)
		}
		return
	}
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("ParsePlanRequest(%q) = %#v, %v; want %#v", line, got, err, want)
	}
	checkPlanHead(t, line, got)
	enc, err := EncodePlanRequest(got)
	if err != nil {
		t.Fatalf("encode %#v: %v", got, err)
	}
	ref, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	if ref = append(ref, '\n'); !bytes.Equal(enc, ref) {
		t.Fatalf("EncodePlanRequest wrote %q, json.Marshal %q", enc, ref)
	}
}

// checkPlanHead holds ParsePlanHead to ParsePlanRequest on a line both
// accept, the full decode being full: every field but sizes agrees; a
// line without a table is decoded in full; and where the span is the
// table's compact text, rows is the length of its first row, so the
// row count of a square one. (That the span's key is then the table's
// is serve's FuzzTableKey.)
func checkPlanHead(t *testing.T, line []byte, full PlanRequest) {
	t.Helper()
	head, table, rows, ok := ParsePlanHead(line)
	if !ok {
		return
	}
	if table == nil {
		if !reflect.DeepEqual(head, full) {
			t.Fatalf("ParsePlanHead(%q) = %#v with no table, ParsePlanRequest %#v", line, head, full)
		}
		return
	}
	rest := full
	rest.Sizes = nil
	if !reflect.DeepEqual(head, rest) {
		t.Fatalf("ParsePlanHead(%q) = %#v, ParsePlanRequest %#v beside the table", line, head, rest)
	}
	if bytes.Equal(AppendSizes(nil, full.Sizes), table) && len(full.Sizes[0]) > 0 && rows != len(full.Sizes[0]) {
		t.Fatalf("ParsePlanHead(%q) counted %d rows in %q, its first row has %d entries", line, rows, table, len(full.Sizes[0]))
	}
}

const canonical3x3 = `{"op":"plan","id":7,"sizes":[[0,1,2],[3,0,5],[6,7,0]],"deadline_ms":500,"trace":"00000000deadbeef"}`

// planCodecSeeds are lines on both sides of the fast decoder's edge.
var planCodecSeeds = []string{
	// The plan frames FuzzProtocolDecode is seeded with.
	`{"op":"plan","id":7,"p":8,"kind":"uniform","bytes":1024,"deadline_ms":500}`,
	`{"op":"plan","p":4,"kind":"random","bytes":1048576,"seed":42}`,
	`{"op":"plan","sizes":[[0,1],[2,0]]}`,
	`{"op":"serve_stats"}`,
	canonical3x3,
	`{}`,
	` { "op" : "plan" , "sizes" : [ [ 0 , -1 ] , [ 2 , 0 ] ] } ` + "\r\n",
	`{"op":"plan","seed":-999999999999999999,"id":999999999999999999}`,
	`{"op":"a<b>&c","kind":" ","trace":"\""}`,
	`{"op":"plan","sizes":[null,[1]]}`,
	"{\"op\":\"plan\",\"sizes\":[[ 0,\t-1 ,2\n],[3 , 0,5],[\r\n6,7\t, 0 ]]}",
	// For the head decode: a table spaced inside its "[[", a "]]" in a
	// string after a table, and a table whose first "]]" is in one.
	`{"op":"plan","sizes":[[0, 1],[2,0]],"id":3}`,
	`{"op":"plan","sizes":[[0,1],[2,0]],"trace":"]]"}`,
	`{"op":"plan","sizes":[[0,1],[2,0] ],"trace":"]]"}`,
	`{"op":"plan","sizes":[[0,1],[2,0],"trace":"]]"}`,
}

// planCodecDeclines are lines the fast decoder must leave to
// encoding/json, whether json then accepts them or not.
var planCodecDeclines = []string{
	`{"op":"plan","sizes":[[0,1],[2,0]],"sizes":[[0,3],[4,0]]}`, // duplicate key: json keeps the last
	`{"op":"plan","op":"serve_stats"}`,
	`{"OP":"plan"}`, // json folds case
	`{"Sizes":[[0,1],[2,0]]}`,
	`{"op":"plan","priority":3}`, // unknown key: json skips it
	`{"op":null}`, `{"id":null}`, `{"p":null}`, `{"kind":null}`, `{"bytes":null}`,
	`{"seed":null}`, `{"sizes":null}`, `{"deadline_ms":null}`, `{"trace":null}`,
	`{"sizes":[null,[0,1]]}`, `{"sizes":[[0,null],[1,0]]}`,
	`{"p":"4"}`, `{"p":4.0}`, `{"p":true}`, `{"op":7}`,
	"{\"kind\":\"uni\xc3\xa9\"}", // UTF-8
	"{\"kind\":\"uni\xff\"}",     // not UTF-8: json substitutes U+FFFD
	`{"kind":"uni\u0066orm"}`, `{"kind":"a\\b"}`, `{"kind":"a\"b"}`, `{"k\u0069nd":"skew"}`,
	"{\"kind\":\"a\tb\"}", // control byte: json refuses
	`{"bytes":1.0}`, `{"bytes":1e3}`, `{"bytes":1E3}`, `{"bytes":01}`, `{"bytes":-0}`,
	`{"bytes":-}`, `{"bytes":+1}`, `{"bytes":- 1}`, `{"id":-1}`,
	`{"id":1234567890123456789}`,  // 19 digits, fits
	`{"id":18446744073709551615}`, // 20 digits, MaxUint64
	`{"id":18446744073709551616}`, // 20 digits, overflows
	`{"seed":9223372036854775808}`,
	`{"sizes":[]}`, `{"sizes":[[]]}`, `{"sizes":[[],[]]}`,
	`{"sizes":[[0,1],[2]]}`, `{"sizes":[[0],[1,2]]}`, `{"sizes":[[0,1]]}`, // ragged, not square
	`{"sizes":[[0,1],[2,0],[3,4]]}`,
	`{"sizes":[[[0]]]}`, `{"sizes":[[0,[1]],[2,0]]}`, `{"sizes":[0,1]}`, `{"sizes":7}`,
	`{"sizes":[[0,1],[2,0]]]}`, `{"sizes":[[0,1],[2,0],]}`, `{"sizes":[[0,1,],[2,0]]}`,
	`{"op":"plan"} x`, `{"op":"plan"}{"op":"plan"}`, `{"op":"plan"},`, `{"op":"plan",}`,
	`{,"op":"plan"}`, `{"op" "plan"}`, `{"op":"plan" "id":1}`, `["op"]`, `null`, ``, ` `,
	// A compact table followed by a malformed tail.
	`{"op":"plan","sizes":[[0,1],[2,0]],"deadline_ms":01}`, `{"op":"plan","sizes":[[0,1],[2,0]]]}`,
	`{"op":"plan","sizes":[[0,1],[2,0]],"id":1`,
	// The number rules inside a sizes row, which reads its own values.
	`{"sizes":[[0,01],[1,0]]}`, `{"sizes":[[0,-0],[1,0]]}`, `{"sizes":[[-0,1],[1,0]]}`,
	`{"sizes":[[0,1234567890123456789],[1,0]]}`, `{"sizes":[[0,1],[-9223372036854775808,0]]}`,
	`{"sizes":[[0,+1],[1,0]]}`, `{"sizes":[[0,1.0],[1,0]]}`, `{"sizes":[[0,1e3],[1,0]]}`,
	`{"sizes":[[0,-],[1,0]]}`, `{"sizes":[[0,- 1],[1,0]]}`, `{"sizes":[[0,1 2],[1,0]]}`,
	"{\"sizes\":[[0,\x0b1],[1,0]]}", // a control byte that is not whitespace
	// A first row whose commas promise more than the line holds.
	`{"sizes":[[0` + strings.Repeat(",0", 4096) + `]]}`,
}

// TestPlanRequestFastPathDeclines: everything outside the canonical
// shape is declined, and so decided by encoding/json — including every
// proper prefix of a valid line.
func TestPlanRequestFastPathDeclines(t *testing.T) {
	for _, line := range planCodecDeclines {
		if req, ok := decodeCanonicalPlanRequest([]byte(line)); ok {
			t.Errorf("fast decoder accepted %q as %#v", line, req)
		}
		checkPlanRequestCodec(t, []byte(line))
	}
	for n := 0; n < len(canonical3x3); n++ {
		if req, ok := decodeCanonicalPlanRequest([]byte(canonical3x3[:n])); ok {
			t.Errorf("fast decoder accepted the %d-byte prefix %q as %#v", n, canonical3x3[:n], req)
		}
		checkPlanRequestCodec(t, []byte(canonical3x3[:n]))
	}
}

// TestPlanRequestFastPathAccepts: the lines our own encoder writes are
// the ones the fast decoder takes, into one slab with clipped rows.
func TestPlanRequestFastPathAccepts(t *testing.T) {
	reqs := []PlanRequest{
		{Op: OpPlan, ID: 7, P: 8, Kind: PatternUniform, Bytes: 1024, DeadlineMS: 500},
		{Op: OpPlan, P: 5, Kind: PatternRandom, Bytes: 1 << 20, Seed: -42, Trace: "00000000deadbeef"},
		{Op: OpPlan, ID: 1, Sizes: [][]int64{{0, 1, 2}, {3, 0, 5}, {6, 7, 0}}},
		{Op: OpPlan, Sizes: [][]int64{{-999999999999999999}}},
		{Op: OpServeStats},
		{},
	}
	for _, req := range reqs {
		line, err := EncodePlanRequest(req)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := decodeCanonicalPlanRequest(line)
		if !ok || !reflect.DeepEqual(got, req) {
			t.Fatalf("fast decoder read %q as %#v, %v; want %#v", line, got, ok, req)
		}
		checkPlanRequestCodec(t, line)
		for i, row := range got.Sizes {
			if cap(row) != len(row) {
				t.Errorf("row %d has capacity %d beyond its %d entries", i, cap(row), len(row))
			}
		}
	}
	for _, line := range planCodecSeeds {
		checkPlanRequestCodec(t, []byte(line))
	}

	// Whitespace in a table keeps it on the fast decoder: a decline would
	// still decode correctly through encoding/json, only slower, so only
	// this test sees it.
	table := make([][]int64, 5)
	for i := range table {
		table[i] = make([]int64, 5)
		for j := range table[i] {
			table[i][j] = int64((i - j) * 1000)
		}
	}
	indented, err := json.MarshalIndent(PlanRequest{Op: OpPlan, Sizes: table, DeadlineMS: 500}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		strings.ReplaceAll(string(indented), "\n", " "),
		`{"op":"plan","sizes":[ [ 0 , -1 , -2 ] , [ -3 , 0 , -4 ] , [ 5 , -6 , 0 ] ]}`,
	} {
		if _, ok := decodeCanonicalPlanRequest([]byte(line)); !ok {
			t.Errorf("fast decoder declined the spaced table %q", line)
		}
		checkPlanRequestCodec(t, []byte(line))
	}
}

// TestPlanRequestEncodeMatchesJSON covers the request shapes no wire
// line decodes to: nil and empty rows, strings json escapes, and the
// integers on each side of every digit count.
func TestPlanRequestEncodeMatchesJSON(t *testing.T) {
	edges := []int64{0, 1, -1, 9, -9, 10, -10, math.MaxInt64, math.MinInt64}
	for p := int64(10); p <= 1e18; p *= 10 {
		edges = append(edges, p-1, p, 1-p, -p)
	}
	reqs := []PlanRequest{
		{Op: OpPlan, Sizes: [][]int64{edges}},
		{Op: OpPlan, Sizes: [][]int64{nil, {}, {1, -2}}},
		{Op: OpPlan, Sizes: [][]int64{}},
		{Op: `pl"an`}, {Op: "a<b"}, {Kind: "a>b"}, {Trace: "a&b"}, {Op: `a\b`},
		{Op: "café"}, {Kind: "a\x7fb"}, {Trace: "a\nb"}, {Op: "\xff"}, {Kind: " "},
		{Op: OpPlan, ID: 1<<64 - 1, P: -3, Bytes: -1 << 63, Seed: 1<<63 - 1, DeadlineMS: -1},
	}
	for _, req := range reqs {
		enc, err := EncodePlanRequest(req)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		if ref = append(ref, '\n'); !bytes.Equal(enc, ref) {
			t.Errorf("EncodePlanRequest wrote %q, json.Marshal %q", enc, ref)
		}
		if app, err := AppendPlanRequest([]byte("x"), req); err != nil || !bytes.Equal(app[1:], ref) || app[0] != 'x' {
			t.Errorf("AppendPlanRequest after a prefix wrote %q, %v", app, err)
		}
	}
}

// FuzzPlanRequestCodec holds the request codec to encoding/json on
// arbitrary lines; see checkPlanRequestCodec.
func FuzzPlanRequestCodec(f *testing.F) {
	for _, line := range planCodecSeeds {
		f.Add(line)
	}
	for _, line := range planCodecDeclines {
		f.Add(line)
	}
	f.Fuzz(func(t *testing.T, line string) {
		checkPlanRequestCodec(t, []byte(line))
	})
}

// BenchmarkPlanRequestCodec is the layer's own baseline: the 14.5 KB
// explicit 50×50 table serve-hot sends and the 100-byte generated spec
// of serve-miss and serve-live, each way.
func BenchmarkPlanRequestCodec(b *testing.B) {
	table := make([][]int64, 50)
	for i := range table {
		table[i] = make([]int64, 50)
		for j := range table[i] {
			if i != j {
				table[i][j] = int64(1 + (i*7919+j*104729)%(1<<16))
			}
		}
	}
	for _, tc := range []struct {
		name string
		req  PlanRequest
	}{
		{"table50", PlanRequest{Op: OpPlan, Sizes: table, DeadlineMS: 2000}},
		{"spec", PlanRequest{Op: OpPlan, P: 50, Kind: PatternRandom, Bytes: 1 << 16,
			Seed: 123456789012345678, DeadlineMS: 2000}},
	} {
		line, err := EncodePlanRequest(tc.req)
		if err != nil {
			b.Fatal(err)
		}
		b.Run("parse/"+tc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(line)))
			for i := 0; i < b.N; i++ {
				if _, err := ParsePlanRequest(line); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("encode/"+tc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(line)))
			var buf []byte
			for i := 0; i < b.N; i++ {
				if buf, err = AppendPlanRequest(buf[:0], tc.req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestParsePlanHead: the head decode locates a table from its "[[" to
// the first "]]" without reading it, decodes a line without one in
// full, and declines what it cannot locate.
func TestParsePlanHead(t *testing.T) {
	for _, tc := range []struct {
		line  string
		req   PlanRequest
		table string
		rows  int
		ok    bool
	}{
		{`{"op":"plan","id":4,"sizes":[[0,1,2],[3,0,5],[6,7,0]],"deadline_ms":9}`,
			PlanRequest{Op: OpPlan, ID: 4, DeadlineMS: 9}, `[[0,1,2],[3,0,5],[6,7,0]]`, 3, true},
		{`{"sizes": [[0,1],[2,0]] ,"trace":"]]"}`, PlanRequest{Trace: "]]"}, `[[0,1],[2,0]]`, 2, true},
		// Nothing in the span is read: it need not be a table at all.
		{`{"op":"plan","sizes":[[0, x],[" ]]}`, PlanRequest{Op: OpPlan}, `[[0, x],[" ]]`, 2, true},
		{`{"op":"plan","p":5,"kind":"uniform"}`, PlanRequest{Op: OpPlan, P: 5, Kind: PatternUniform}, "", 0, true},
		{`{"op":"plan","sizes":[ [0,1],[2,0]]}`, PlanRequest{}, "", 0, false},
		{`{"op":"plan","sizes":[[0,1],[2,0] ],"trace":"]]"}`, PlanRequest{}, "", 0, false},
		{`{"op":"plan","sizes":[[0,1],[2,0]]`, PlanRequest{}, "", 0, false},
		{`{"op":"plan","sizes":[[0,1],[2,0]]]}`, PlanRequest{}, "", 0, false},
		{`{"op":"plan","sizes":[[0,1],[2,0]],"sizes":[[0,1],[2,0]]}`, PlanRequest{}, "", 0, false},
		{`{"op":"plan","sizes":[[0,1],[2,0]],"deadline_ms":1e3}`, PlanRequest{}, "", 0, false},
	} {
		req, table, rows, ok := ParsePlanHead([]byte(tc.line))
		if ok != tc.ok || !reflect.DeepEqual(req, tc.req) || string(table) != tc.table || rows != tc.rows {
			t.Errorf("ParsePlanHead(%s) = %#v, %q, %d, %v; want %#v, %q, %d, %v",
				tc.line, req, table, rows, ok, tc.req, tc.table, tc.rows, tc.ok)
		}
		if tc.table == "" && tc.ok && table != nil {
			t.Errorf("ParsePlanHead(%s) found a table in a line without one", tc.line)
		}
	}
}
