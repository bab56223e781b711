package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"runtime"
	"slices"
	"strings"
	"testing"

	"hetsched/internal/directory"
	"hetsched/internal/leakcheck"
	"hetsched/internal/obs"
)

// tableLine is the wire line a client writes for a plan of rows, as the
// line server hands it to its handler: without the newline.
func tableLine(tb testing.TB, id uint64, rows [][]int64) []byte {
	tb.Helper()
	line, err := directory.EncodePlanRequest(directory.PlanRequest{Op: directory.OpPlan, ID: id,
		Sizes: rows, DeadlineMS: 2000})
	if err != nil {
		tb.Fatal(err)
	}
	return bytes.TrimSuffix(line, []byte("\n"))
}

// decodedAnswer answers a plan line as the TCP front did before it had
// a head decode: the whole line decoded, then planned.
func decodedAnswer(d *Daemon, line []byte) []byte {
	var resp directory.PlanResponse
	if req, err := directory.ParsePlanRequest(line); err != nil {
		resp.Error = err.Error()
	} else {
		resp = d.Plan(context.Background(), req)
	}
	out, err := directory.EncodePlanResponse(resp)
	if err != nil {
		panic(err)
	}
	return out
}

// withTable returns a copy of rows with rows[i][j] = v.
func withTable(rows [][]int64, i, j int, v int64) [][]int64 {
	out := make([][]int64, len(rows))
	for r := range rows {
		out[r] = append([]int64(nil), rows[r]...)
	}
	out[i][j] = v
	return out
}

// TestTableHitWhereAllowed: the TCP front answers a table from its text
// only where that is the answer a full decode would get. Two daemons
// see the same lines after the same table is cached, one through
// handleLine and one through a full decode and Plan; every response is
// byte-identical, and so are the counters, metrics and flight events
// they leave.
func TestTableHitWhereAllowed(t *testing.T) {
	const n = 50
	type side struct {
		d      *Daemon
		reg    *obs.Registry
		flight *obs.FlightRecorder
		answer func([]byte) []byte
	}
	newSide := func(front bool) side {
		reg, flight := obs.New(), obs.NewFlightRecorder(256, nil)
		sd := side{reg: reg, flight: flight}
		sd.d = newTestDaemon(t, n, okSource(n), nil, Config{Metrics: reg, Flight: flight})
		if front {
			s := NewServer(sd.d, ServerConfig{})
			sd.answer = func(line []byte) []byte {
				out, ok := s.handleLine(nil, line)
				if !ok {
					t.Fatalf("handleLine(%.60s...) could not answer", line)
				}
				return out
			}
		} else {
			sd.answer = func(line []byte) []byte { return decodedAnswer(sd.d, line) }
		}
		return sd
	}
	fast, ref := newSide(true), newSide(false)

	rows := explicitTable(n, 5)
	text := string(directory.AppendSizes(nil, rows))
	for _, sd := range []side{fast, ref} {
		resp, err := directory.ParsePlanResponse(sd.answer(tableLine(t, 1, rows)))
		if err != nil || !resp.OK || resp.Cached {
			t.Fatalf("the miss that fills the cache: %+v, %v", resp, err)
		}
	}
	indented, err := json.MarshalIndent(directory.PlanRequest{Op: directory.OpPlan, ID: 4, Sizes: rows}, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	ragged := withTable(rows, 0, 1, 1)
	ragged[3] = ragged[3][:n-1]
	cases := []struct {
		name, line, want string
	}{
		{"compact", string(tableLine(t, 2, rows)), `"cached":true`},
		{"compact again", string(tableLine(t, 3, rows)), `"cached":true`},
		{"spaced around its rows", strings.ReplaceAll(string(indented), "\n", " "), `"cached":true`},
		{"spaced inside its rows", strings.ReplaceAll(string(tableLine(t, 5, rows)), ",", ", "), `"cached":true`},
		{"cached text, tail cut", `{"op":"plan","id":6,"sizes":` + text + `,"deadline_ms":2000`, "malformed plan request"},
		{"cached text, bad number after", `{"op":"plan","sizes":` + text + `,"id":07}`, "malformed plan request"},
		{"cached text, extra bracket", `{"op":"plan","sizes":` + text + `]}`, "malformed plan request"},
		{"negative", string(tableLine(t, 8, withTable(rows, 2, 7, -5))), "is negative: -5"},
		{"diagonal", string(tableLine(t, 9, withTable(rows, 4, 4, 3))), "diagonal entry (4,4) must be 0, got 3"},
		{"ragged", string(tableLine(t, 10, ragged)), "sizes row 3 has 49 entries, want 50"},
		{"49 rows", string(tableLine(t, 11, explicitTable(n-1, 5))), "daemon plans for 50 processors, request describes 49"},
		{"51 rows", string(tableLine(t, 12, explicitTable(n+1, 5))), "daemon plans for 50 processors, request describes 51"},
	}
	check := func(name, line, want string) {
		t.Helper()
		got, exp := fast.answer([]byte(line)), ref.answer([]byte(line))
		if !bytes.Equal(got, exp) {
			t.Errorf("%s: the front answered %s, a full decode %s", name, got, exp)
		}
		if !bytes.Contains(got, []byte(want)) {
			t.Errorf("%s: answered %s, want %s in it", name, got, want)
		}
	}
	for _, c := range cases {
		check(c.name, c.line, c.want)
	}

	// The compact line took the text path: it allocated nothing near the
	// 20 KB a decoded 50×50 table needs.
	if !leakcheck.RaceEnabled {
		line := tableLine(t, 2, rows)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 20; i++ {
			fast.answer(line)
		}
		runtime.ReadMemStats(&after)
		for i := 0; i < 20; i++ {
			ref.answer(line) // keeps the two daemons' counters in step
		}
		if per := (after.TotalAlloc - before.TotalAlloc) / 20; per > 4<<10 {
			t.Errorf("a compact table hit allocates %d bytes, want under 4 KiB: it was decoded", per)
		}
	}

	if got, want := fast.d.Snapshot(), ref.d.Snapshot(); got != want {
		t.Errorf("stats after the same lines: front %+v, full decode %+v", got, want)
	}
	hits := func(sd side) uint64 {
		return sd.reg.Counter(obs.MetricServeCacheHits, "").Value()
	}
	if hits(fast) != hits(ref) || hits(fast) < 4 {
		t.Errorf("cache_hits: front %d, full decode %d; want equal and at least 4", hits(fast), hits(ref))
	}
	for _, o := range []string{"served", "rejected"} {
		get := func(sd side) uint64 {
			return sd.reg.Counter(obs.MetricServeRequests, "", obs.L("outcome", o)).Value()
		}
		if get(fast) != get(ref) {
			t.Errorf("requests{outcome=%s}: front %d, full decode %d", o, get(fast), get(ref))
		}
	}
	type event struct {
		sys, name string
		trace     uint64
		depth     int64
	}
	events := func(sd side) []event {
		var out []event
		for _, ev := range sd.flight.Snapshot() {
			out = append(out, event{ev.Sys, ev.Event, ev.Trace, ev.B})
		}
		return out
	}
	if got, want := events(fast), events(ref); len(got) == 0 || !slices.Equal(got, want) {
		t.Errorf("flight events: front %v, full decode %v", got, want)
	}

	// A draining daemon refuses the cached text as it refuses any valid
	// table, and still names what is wrong with an invalid one.
	fast.d.Shutdown()
	ref.d.Shutdown()
	check("draining, cached", string(tableLine(t, 13, rows)), `"status":"draining"`)
	check("draining, not cached", string(tableLine(t, 14, withTable(rows, 0, 1, 99))), `"status":"draining"`)
	check("draining, negative", string(tableLine(t, 15, withTable(rows, 0, 1, -1))), "is negative: -1")
}

// FuzzTableKey holds an explicit table's two keys together: where the
// head decode's span is the compact text of the table the full decode
// reads and admitExplicit passes that table, the span's key is
// admitExplicit's, and no other span has that key.
func FuzzTableKey(f *testing.F) {
	for _, line := range []string{
		`{"op":"plan","sizes":[[0,1],[2,0]]}`,
		`{"op":"plan","id":3,"sizes":[[0,1,2],[3,0,5],[6,7,0]],"deadline_ms":500,"trace":"00000000deadbeef"}`,
		`{"op":"plan","sizes":[[0, 1],[2,0]]}`,
		`{"op":"plan","sizes":[[0,1],[2,0]],"trace":"]]"}`,
		`{"op":"plan","sizes":[[0,1],[2,0] ],"trace":"]]"}`,
		`{"op":"plan","sizes":[[0,1],[2,0]],"id":01}`,
		`{"op":"plan","sizes":[[0,-1],[2,0]]}`,
		`{"op":"plan","sizes":[[1,1],[2,0]]}`,
		`{"op":"plan","sizes":[[0,1],[2,0],[3,4]]}`,
		`{"op":"plan","sizes":[[0,9223372036854775807],[2,0]]}`,
		string(tableLine(f, 1, explicitTable(60, 2))),  // many 1 KiB writes
		string(tableLine(f, 1, explicitTable(200, 3))), // rows longer than the buffer
	} {
		f.Add(line)
	}
	f.Fuzz(func(t *testing.T, line string) {
		_, table, _, ok := directory.ParsePlanHead([]byte(line))
		full, err := directory.ParsePlanRequest([]byte(line))
		if !ok || table == nil || err != nil {
			return
		}
		pt, err := admitExplicit(full.Sizes)
		if err != nil {
			return
		}
		canonical := bytes.Equal(directory.AppendSizes(nil, full.Sizes), table)
		if key := tableKey(table); (key == pt.key) != canonical {
			t.Fatalf("span %.80q keys %x, its table %x; the span is the table's compact text: %v",
				table, key, pt.key, canonical)
		}
	})
}

// BenchmarkServerTableHit is the TCP front's layer baseline for
// serve-hot: handleLine on a cached 50×50 table's line, without the
// socket.
func BenchmarkServerTableHit(b *testing.B) {
	const n = 50
	d := newTestDaemon(b, n, okSource(n), nil, Config{})
	s := NewServer(d, ServerConfig{})
	line := tableLine(b, 1, explicitTable(n, 1))
	if out, ok := s.handleLine(nil, line); !ok || !bytes.Contains(out, []byte(`"ok":true`)) {
		b.Fatalf("the miss that fills the cache: %s", out)
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(line)))
	b.ResetTimer()
	var out []byte // the connection's response buffer, as wire.Server reuses it
	for i := 0; i < b.N; i++ {
		var ok bool
		if out, ok = s.handleLine(out[:0], line); !ok || !bytes.Contains(out, []byte(`"cached":true`)) {
			b.Fatalf("not a hit: %s", out)
		}
	}
}
