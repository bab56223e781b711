package directory

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"hetsched/internal/comm"
	"hetsched/internal/sched"
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

// jsonPlanResponse is the reference the response codec is held to: what
// ParsePlanResponse was before it had a fast path.
func jsonPlanResponse(line []byte) (PlanResponse, error) {
	var resp PlanResponse
	if err := json.Unmarshal(line, &resp); err != nil {
		return PlanResponse{}, fmt.Errorf("malformed plan response: %w", err)
	}
	return resp, nil
}

// checkPlanResponseCodec holds one line to the response codec's
// contract: the fast decoder accepts only what encoding/json accepts
// and decodes it to the same value, a rejection carries encoding/json's
// text, and what a line decodes to encodes as checkPlanResponseEncode
// says.
func checkPlanResponseCodec(t *testing.T, line []byte) {
	t.Helper()
	want, wantErr := jsonPlanResponse(line)
	d := planDecoder{b: line}
	if fast, ok := d.response(); ok {
		if wantErr != nil {
			t.Fatalf("fast decoder accepted %q, encoding/json says %v", line, wantErr)
		}
		if !reflect.DeepEqual(fast, want) {
			t.Fatalf("fast decoder read %q as %#v, encoding/json as %#v", line, fast, want)
		}
	}
	got, err := ParsePlanResponse(line)
	if wantErr != nil {
		if err == nil || err.Error() != wantErr.Error() {
			t.Fatalf("ParsePlanResponse(%q) = %v, want error %v", line, err, wantErr)
		}
		return
	}
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("ParsePlanResponse(%q) = %#v, %v; want %#v", line, got, err, want)
	}
	checkPlanResponseEncode(t, got)
}

// checkPlanResponseEncode: a response encodes to json.Marshal's bytes
// plus the newline, also after a prefix, or fails where json.Marshal
// fails, leaving the prefix as it was.
func checkPlanResponseEncode(t *testing.T, resp PlanResponse) {
	t.Helper()
	ref, refErr := json.Marshal(resp)
	enc, err := EncodePlanResponse(resp)
	app, appErr := AppendPlanResponse([]byte("x"), resp)
	if refErr != nil {
		if err == nil || appErr == nil || string(app) != "x" {
			t.Fatalf("encoding %#v: json.Marshal fails (%v), EncodePlanResponse wrote %q, %v and AppendPlanResponse %q, %v",
				resp, refErr, enc, err, app, appErr)
		}
		return
	}
	ref = append(ref, '\n')
	if err != nil || !bytes.Equal(enc, ref) {
		t.Fatalf("EncodePlanResponse wrote %q, %v; json.Marshal %q", enc, err, ref)
	}
	if appErr != nil || !bytes.Equal(app[1:], ref) || app[0] != 'x' {
		t.Fatalf("AppendPlanResponse after a prefix wrote %q, %v; want x%q", app, appErr, ref)
	}
}

// servedHit is the answer a cache hit sends.
var servedHit = PlanResponse{OK: true, ID: 7, Status: PlanServed, Health: "ok", Generation: 3,
	Algorithm: "openshop", TMax: 0.012345678901234567, TLB: 0.009, Steps: 49, Cached: true,
	QueueWaitMS: 0.25, Trace: "00000000deadbeef"}

// planResponseSeeds are lines the fast decoder takes.
var planResponseSeeds = []string{
	`{"ok":true,"id":7,"status":"served","health":"ok","generation":3,"algorithm":"openshop","t_max":0.012,"t_lb":0.009,"steps":8}`,
	`{"ok":false,"id":7,"status":"shed","retry_after_ms":40,"error":"serve: queue full"}`,
	`{"ok":true,"status":"served","health":"stale","algorithm":"openshop+stale","coalesced":true,"cached":false}`,
	`{"ok":true,"algorithm":"baseline+degraded","health":"degraded","t_max":1e-7,"t_lb":2.5E+21,"queue_wait_ms":-0}`,
	`{}`, `{"ok":false}`, ` { "ok" : true , "t_max" : -0.5e-3 , "steps" : -2 } ` + "\r\n",
	`{"t_max":0,"t_lb":-0.0,"queue_wait_ms":123456789012345678901234567890}`,
	`{"t_max":5e-324,"t_lb":1.7976931348623157e308,"generation":999999999999999999}`,
	"{\"error\":\"a\x7fb\",\"trace\":\"]]\"}", `{"error":"a<b&c>"}`,
}

// planResponseDeclines are lines the fast decoder must leave to
// encoding/json, whether json then accepts them or not.
var planResponseDeclines = []string{
	// Keys: upper case (json folds it), repeated (json keeps the last),
	// unknown (json skips it), a stats payload, null values.
	`{"OK":true}`, `{"Status":"served"}`, `{"ok":true,"ok":false}`, `{"t_max":1,"t_max":2}`,
	`{"ok":true,"priority":3}`, `{"ok":true,"stats":{"queue_depth":2,"served":8}}`, `{"stats":null}`,
	`{"ok":null}`, `{"error":null}`, `{"id":null}`, `{"t_max":null}`, `{"cached":null}`,
	// Strings: escapes, UTF-8, bytes json refuses or replaces.
	`{"error":"unknown op \"x\""}`, `{"error":"a\u003cb"}`, `{"status":"s\\erved"}`,
	"{\"error\":\"caf\xc3\xa9\"}", "{\"error\":\"\xff\"}", "{\"error\":\"a\tb\"}",
	// Numbers: outside JSON's grammar, out of range, of the wrong type.
	`{"t_max":1.}`, `{"t_max":.5}`, `{"t_max":01}`, `{"t_max":-}`, `{"t_max":+1}`, `{"t_max":1e}`,
	`{"t_max":1e+}`, `{"t_max":1.e3}`, `{"t_max":0x10}`, `{"t_max":NaN}`, `{"t_max":Infinity}`,
	`{"t_max":1e400}`, `{"t_lb":-1e400}`, `{"t_max":"1"}`, `{"t_max":true}`,
	`{"id":-1}`, `{"id":1.0}`, `{"id":01}`, `{"steps":1e2}`, `{"generation":18446744073709551615}`,
	`{"retry_after_ms":-0}`, `{"steps":1234567890123456789}`,
	// Booleans.
	`{"ok":True}`, `{"ok":tru}`, `{"ok":truex}`, `{"ok":1}`, `{"cached":"true"}`,
	// Framing.
	`{"ok":true} x`, `{"ok":true}{"ok":true}`, `{"ok":true,}`, `{,"ok":true}`, `{"ok" true}`,
	`{"ok":true "id":1}`, `["ok"]`, `null`, ``, ` `, `{`, `{]`, `null{`,
}

// TestPlanResponseFastPath: the lines our own encoder writes, and the
// seeds, are the ones the fast decoder takes; everything outside them —
// every proper prefix of a served answer among them — is declined and so
// decided by encoding/json.
func TestPlanResponseFastPath(t *testing.T) {
	line, err := EncodePlanResponse(servedHit)
	if err != nil {
		t.Fatal(err)
	}
	lines := append([]string{string(line)}, planResponseSeeds...)
	for _, line := range lines {
		d := planDecoder{b: []byte(line)}
		if _, ok := d.response(); !ok {
			t.Errorf("fast decoder declined %q", line)
		}
		checkPlanResponseCodec(t, []byte(line))
	}
	declines := append([]string(nil), planResponseDeclines...)
	for n := 0; n < len(line)-1; n++ {
		declines = append(declines, string(line[:n]))
	}
	for _, line := range declines {
		d := planDecoder{b: []byte(line)}
		if resp, ok := d.response(); ok {
			t.Errorf("fast decoder accepted %q as %#v", line, resp)
		}
		checkPlanResponseCodec(t, []byte(line))
	}
}

// TestPlanResponseEdges: the encoder at json.Marshal's edges — floats
// on each side of the switch to exponent form, the extremes and what
// json refuses; strings json escapes; a stats payload — and each line
// it writes read back by the decoder, or declined to json.
func TestPlanResponseEdges(t *testing.T) {
	floats := []float64{
		1e-6, math.Nextafter(1e-6, 0), 1e21, math.Nextafter(1e21, 0), 1e-7, 1e-10, 1e20, 1e100,
		math.Copysign(0, -1), 5e-324, math.MaxFloat64, 0.1, 1, 123456.789, 1.0000000000000002,
	}
	var resps []PlanResponse
	for _, f := range floats {
		resps = append(resps, PlanResponse{TMax: f, TLB: -f, QueueWaitMS: f / 3})
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		resps = append(resps, PlanResponse{TMax: f}, PlanResponse{TLB: f}, PlanResponse{QueueWaitMS: f})
	}
	for _, s := range []string{"<", ">", "&", `"`, `\`, "café", " ", "\xff", "a\nb", "\x7f", " "} {
		resps = append(resps, PlanResponse{Error: s}, PlanResponse{Status: s}, PlanResponse{Health: s},
			PlanResponse{Algorithm: s}, PlanResponse{Trace: s})
	}
	resps = append(resps,
		servedHit,
		PlanResponse{OK: true, Health: "ok", Stats: &ServeStats{QueueDepth: 2, Draining: true, Served: 8}},
		PlanResponse{ID: math.MaxUint64, Generation: math.MaxUint64, RetryAfterMS: math.MinInt64, Steps: math.MaxInt64},
		PlanResponse{RetryAfterMS: -1, Steps: -1, Coalesced: true},
	)
	for _, resp := range resps {
		checkPlanResponseEncode(t, resp)
		if line, err := EncodePlanResponse(resp); err == nil {
			checkPlanResponseCodec(t, line)
		}
	}
	// The floats' lines are the fast decoder's; the stats payload's is not.
	for _, f := range floats {
		line, _ := EncodePlanResponse(PlanResponse{TMax: f, TLB: -f})
		if d := (planDecoder{b: line}); !ok(d.response()) {
			t.Errorf("fast decoder declined %q", line)
		}
	}
}

func ok[T any](_ T, ok bool) bool { return ok }

// TestPlanResponseCodecAllocs: a served answer is written into a buffer
// with room and read back without an allocation; only the error text
// and an uncommon trace or algorithm would cost one.
func TestPlanResponseCodecAllocs(t *testing.T) {
	buf, err := AppendPlanResponse(nil, servedHit)
	if err != nil {
		t.Fatal(err)
	}
	servedHit := servedHit
	servedHit.Trace = "" // a trace is the client's own string
	line, _ := EncodePlanResponse(servedHit)
	if got := testing.AllocsPerRun(100, func() { AppendPlanResponse(buf[:0], servedHit) }); got != 0 {
		t.Errorf("AppendPlanResponse into room: %v allocations, want 0", got)
	}
	if got := testing.AllocsPerRun(100, func() { ParsePlanResponse(line) }); got != 0 {
		t.Errorf("ParsePlanResponse(%q): %v allocations, want 0", line, got)
	}
}

// TestPlanResponseInternsServedNames ties the decoder's interned
// strings to the names the serving stack actually writes: on each
// rung of comm's ladder, the rung's name as Health, and as Algorithm
// the default scheduler's name (the blind baseline's on the degraded
// rung) tagged "+rung" below the fresh rung, as comm's tagResult does.
// A rename in sched or comm fails here instead of quietly costing every
// hit an allocation.
func TestPlanResponseInternsServedNames(t *testing.T) {
	for _, h := range []comm.Health{comm.HealthOK, comm.HealthStale, comm.HealthDegraded} {
		var s sched.Scheduler = sched.NewOpenShop()
		if h == comm.HealthDegraded {
			s = sched.Baseline{}
		}
		alg := s.Name()
		if h != comm.HealthOK {
			alg += "+" + h.String()
		}
		resp := servedHit
		resp.Trace, resp.Health, resp.Algorithm = "", h.String(), alg
		line, err := EncodePlanResponse(resp)
		if err != nil {
			t.Fatal(err)
		}
		if got := testing.AllocsPerRun(100, func() { ParsePlanResponse(line) }); got != 0 {
			t.Errorf("ParsePlanResponse(%q): %v allocations, want 0", line, got)
		}
	}
}

// FuzzPlanResponseCodec holds the response codec to encoding/json: a
// fuzzed line goes through checkPlanResponseCodec, and a response built
// from the other inputs through checkPlanResponseEncode. mask's bits
// choose which string fields carry text instead of a protocol value,
// the flags, and a stats payload.
func FuzzPlanResponseCodec(f *testing.F) {
	for i, line := range append(planResponseSeeds, planResponseDeclines...) {
		f.Add(line, "", uint64(i), float64(i)/7, math.Pow(10, float64(i%40-20)), uint16(i))
	}
	f.Add("", "<", uint64(1), 1e21, 1e-7, uint16(0x1ff))
	f.Add("", "caf\xc3\xa9", uint64(math.MaxUint64), math.NaN(), math.Inf(-1), uint16(0xfe))
	f.Fuzz(func(t *testing.T, line, text string, n uint64, x, y float64, mask uint16) {
		checkPlanResponseCodec(t, []byte(line))
		pick := func(bit uint16, protocol string) string {
			if mask&bit != 0 {
				return text
			}
			return protocol
		}
		resp := PlanResponse{
			OK: mask&1 != 0, Error: pick(2, ""), ID: n, Status: pick(4, PlanServed),
			RetryAfterMS: int64(n), Health: pick(8, "ok"), Generation: n >> 7,
			Algorithm: pick(16, "openshop"), TMax: x, TLB: y, Steps: int(int64(n) >> 3),
			Coalesced: mask&32 != 0, Cached: mask&64 != 0, QueueWaitMS: x - y, Trace: pick(128, ""),
		}
		if mask&256 != 0 {
			resp.Stats = &ServeStats{QueueDepth: int(int16(n)), Served: n}
		}
		checkPlanResponseEncode(t, resp)
		if enc, err := EncodePlanResponse(resp); err == nil {
			checkPlanResponseCodec(t, enc)
		}
	})
}

// BenchmarkPlanResponseCodec is the layer's own baseline: the answer a
// cache hit sends, each way, and the serve_stats answer, which json
// writes and reads.
func BenchmarkPlanResponseCodec(b *testing.B) {
	for _, tc := range []struct {
		name string
		resp PlanResponse
	}{
		{"hit", servedHit},
		{"stats", PlanResponse{OK: true, Health: "ok", Stats: &ServeStats{QueueDepth: 2, Admitted: 10, Served: 8}}},
	} {
		line, err := EncodePlanResponse(tc.resp)
		if err != nil {
			b.Fatal(err)
		}
		b.Run("parse/"+tc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(line)))
			for i := 0; i < b.N; i++ {
				if _, err := ParsePlanResponse(line); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("encode/"+tc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(line)))
			var buf []byte
			for i := 0; i < b.N; i++ {
				if buf, err = AppendPlanResponse(buf[:0], tc.resp); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
