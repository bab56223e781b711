package netmodel

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestPairPerfTransferTime(t *testing.T) {
	pp := PairPerf{Latency: 0.010, Bandwidth: 1000}
	got := pp.TransferTime(500)
	want := 0.010 + 0.5
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("TransferTime(500) = %g, want %g", got, want)
	}
}

func TestPairPerfTransferTimeZeroSize(t *testing.T) {
	pp := PairPerf{Latency: 0.010, Bandwidth: 1000}
	if got := pp.TransferTime(0); got != 0.010 {
		t.Errorf("TransferTime(0) = %g, want latency only", got)
	}
	if got := pp.TransferTime(-5); got != 0.010 {
		t.Errorf("TransferTime(-5) = %g, want latency only", got)
	}
}

func TestPairPerfTransferTimeZeroBandwidth(t *testing.T) {
	pp := PairPerf{Latency: 0.010, Bandwidth: 0}
	if got := pp.TransferTime(1); !math.IsInf(got, 1) {
		t.Errorf("TransferTime with zero bandwidth = %g, want +Inf", got)
	}
}

func TestPairPerfValid(t *testing.T) {
	cases := []struct {
		pp   PairPerf
		want bool
	}{
		{PairPerf{0.01, 1000}, true},
		{PairPerf{0, 1}, true},
		{PairPerf{-0.01, 1000}, false},
		{PairPerf{0.01, 0}, false},
		{PairPerf{0.01, -5}, false},
		{PairPerf{math.Inf(1), 1000}, false},
		{PairPerf{0.01, math.Inf(1)}, false},
		{PairPerf{math.NaN(), 1000}, false},
		{PairPerf{0.01, math.NaN()}, false},
	}
	for _, c := range cases {
		if got := c.pp.Valid(); got != c.want {
			t.Errorf("Valid(%+v) = %v, want %v", c.pp, got, c.want)
		}
	}
}

func TestPairPerfCheck(t *testing.T) {
	cases := []struct {
		pp   PairPerf
		want string // substring of the diagnosis; empty means nil error
	}{
		{PairPerf{0.01, 1000}, ""},
		{PairPerf{0, 1}, ""},
		{PairPerf{-0.01, 1000}, "negative latency"},
		{PairPerf{math.Inf(1), 1000}, "non-finite latency"},
		{PairPerf{math.NaN(), 1000}, "non-finite latency"},
		{PairPerf{0.01, 0}, "non-positive bandwidth"},
		{PairPerf{0.01, -5}, "non-positive bandwidth"},
		{PairPerf{0.01, math.Inf(1)}, "non-finite bandwidth"},
		{PairPerf{0.01, math.NaN()}, "non-finite bandwidth"},
	}
	for _, c := range cases {
		err := c.pp.Check()
		if c.want == "" {
			if err != nil {
				t.Errorf("Check(%+v) = %v, want nil", c.pp, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("Check(%+v) accepted, want %q", c.pp, c.want)
			continue
		}
		if !errors.Is(err, ErrPerfBounds) {
			t.Errorf("Check(%+v) error does not wrap ErrPerfBounds: %v", c.pp, err)
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("Check(%+v) = %q, want diagnosis %q", c.pp, err, c.want)
		}
		// Valid and Check must agree by construction.
		if c.pp.Valid() {
			t.Errorf("Valid(%+v) true but Check rejects", c.pp)
		}
	}
}

func TestPerfValidateWrapsBounds(t *testing.T) {
	p := NewPerf(2)
	p.Set(0, 1, PairPerf{Latency: 0.01, Bandwidth: 1000})
	p.Set(1, 0, PairPerf{Latency: 0.01, Bandwidth: -1})
	err := p.Validate()
	if err == nil {
		t.Fatal("invalid table accepted")
	}
	if !errors.Is(err, ErrPerfBounds) {
		t.Fatalf("Validate error does not wrap ErrPerfBounds: %v", err)
	}
	if !strings.Contains(err.Error(), "(1,0)") {
		t.Fatalf("Validate error does not name the offending pair: %v", err)
	}
}

func TestPerfSetAtClone(t *testing.T) {
	p := NewPerf(3)
	pp := PairPerf{Latency: 0.005, Bandwidth: 2000}
	p.Set(1, 2, pp)
	if got := p.At(1, 2); got != pp {
		t.Fatalf("At(1,2) = %+v, want %+v", got, pp)
	}
	c := p.Clone()
	c.Set(1, 2, PairPerf{Latency: 1, Bandwidth: 1})
	if p.At(1, 2) != pp {
		t.Error("Clone is not independent of the original")
	}
}

func TestPerfValidate(t *testing.T) {
	p := NewPerf(3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if i != j {
				p.Set(i, j, PairPerf{Latency: 0.01, Bandwidth: 100})
			}
		}
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate on valid table: %v", err)
	}
	p.Set(0, 2, PairPerf{Latency: -1, Bandwidth: 100})
	if err := p.Validate(); err == nil {
		t.Error("Validate did not flag a negative latency")
	}
}

func TestPerfTransferTimeSelf(t *testing.T) {
	p := Gusto()
	if got := p.TransferTime(2, 2, 1<<20); got != 0 {
		t.Errorf("self transfer = %g, want 0", got)
	}
}

func TestPerfScale(t *testing.T) {
	p := Gusto()
	s := p.Scale(2)
	if got, want := s.At(0, 1).Bandwidth, p.At(0, 1).Bandwidth*2; math.Abs(got-want) > 1e-9 {
		t.Errorf("scaled bandwidth = %g, want %g", got, want)
	}
	if got, want := s.At(0, 1).Latency, p.At(0, 1).Latency; got != want {
		t.Errorf("scale changed latency: %g != %g", got, want)
	}
	defer func() {
		if recover() == nil {
			t.Error("Scale(0) did not panic")
		}
	}()
	p.Scale(0)
}

func TestGustoMatchesTables(t *testing.T) {
	p := Gusto()
	if p.N() != 5 {
		t.Fatalf("Gusto size = %d, want 5", p.N())
	}
	// Spot-check against the published tables: AMES↔USC-ISI is 12 ms
	// and 2044 kbit/s; ANL↔NCSA is 4.5 ms and 2402 kbit/s.
	checks := []struct {
		i, j     int
		ms, kbps float64
	}{
		{0, 3, 12, 2044},
		{1, 4, 4.5, 2402},
		{2, 0, 89.5, 246},
		{3, 4, 29.5, 4976},
	}
	for _, c := range checks {
		pp := p.At(c.i, c.j)
		if got := SecondsToMs(pp.Latency); math.Abs(got-c.ms) > 1e-9 {
			t.Errorf("latency(%d,%d) = %g ms, want %g", c.i, c.j, got, c.ms)
		}
		if got := BytesPerSecondToKbps(pp.Bandwidth); math.Abs(got-c.kbps) > 1e-9 {
			t.Errorf("bandwidth(%d,%d) = %g kbps, want %g", c.i, c.j, got, c.kbps)
		}
	}
}

func TestGustoSymmetricAndValid(t *testing.T) {
	p := Gusto()
	if !p.Symmetric() {
		t.Error("GUSTO tables should be symmetric")
	}
	if err := p.Validate(); err != nil {
		t.Errorf("GUSTO table invalid: %v", err)
	}
}

func TestGustoRanges(t *testing.T) {
	minLat, maxLat, minBW, maxBW := GustoRanges()
	if got := SecondsToMs(minLat); got != 4.5 {
		t.Errorf("min latency = %g ms, want 4.5", got)
	}
	if got := SecondsToMs(maxLat); got != 89.5 {
		t.Errorf("max latency = %g ms, want 89.5", got)
	}
	if got := BytesPerSecondToKbps(minBW); math.Abs(got-246) > 1e-9 {
		t.Errorf("min bandwidth = %g kbps, want 246", got)
	}
	if got := BytesPerSecondToKbps(maxBW); math.Abs(got-4976) > 1e-9 {
		t.Errorf("max bandwidth = %g kbps, want 4976", got)
	}
}

func TestGustoAccessors(t *testing.T) {
	if gustoLatencyMS[0][2] != 89.5 {
		t.Error("Table 1 entry (0,2) != 89.5 ms")
	}
	if gustoBandwidthKbps[3][4] != 4976 {
		t.Error("Table 2 entry (3,4) != 4976 kbit/s")
	}
	if len(GustoSites) != 5 {
		t.Error("GustoSites should list 5 sites")
	}
}

func TestUnitConversionsRoundTrip(t *testing.T) {
	f := func(x float64) bool {
		x = math.Abs(x)
		if math.IsInf(x, 0) || math.IsNaN(x) {
			return true
		}
		a := SecondsToMs(MsToSeconds(x))
		b := BytesPerSecondToKbps(KbpsToBytesPerSecond(x))
		return floatClose(a, x) && floatClose(b, x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func floatClose(a, b float64) bool {
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= 1e-9*scale
}

func TestRandomPerfWithinRanges(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cfg := GustoGuided()
	p := RandomPerf(rng, 20, cfg)
	if err := p.Validate(); err != nil {
		t.Fatalf("random table invalid: %v", err)
	}
	for i := 0; i < p.N(); i++ {
		for j := 0; j < p.N(); j++ {
			if i == j {
				continue
			}
			pp := p.At(i, j)
			if pp.Latency < cfg.MinLatency || pp.Latency > cfg.MaxLatency {
				t.Fatalf("latency %g outside [%g, %g]", pp.Latency, cfg.MinLatency, cfg.MaxLatency)
			}
			if pp.Bandwidth < cfg.MinBandwidth || pp.Bandwidth > cfg.MaxBandwidth {
				t.Fatalf("bandwidth %g outside [%g, %g]", pp.Bandwidth, cfg.MinBandwidth, cfg.MaxBandwidth)
			}
		}
	}
}

func TestRandomPerfSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	p := RandomPerf(rng, 12, GustoGuided())
	if !p.Symmetric() {
		t.Error("GustoGuided generation should be symmetric")
	}
	cfg := GustoGuided()
	cfg.Symmetric = false
	q := RandomPerf(rand.New(rand.NewSource(2)), 12, cfg)
	if q.Symmetric() {
		t.Error("asymmetric generation produced a symmetric table (vanishingly unlikely)")
	}
}

func TestRandomPerfDeterministic(t *testing.T) {
	a := RandomPerf(rand.New(rand.NewSource(7)), 10, GustoGuided())
	b := RandomPerf(rand.New(rand.NewSource(7)), 10, GustoGuided())
	for i := 0; i < a.N(); i++ {
		for j := 0; j < a.N(); j++ {
			if a.At(i, j) != b.At(i, j) {
				t.Fatalf("same seed produced different tables at (%d,%d)", i, j)
			}
		}
	}
}

func TestRandomPerfBadConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("RandomPerf with zero bandwidth range did not panic")
		}
	}()
	RandomPerf(rand.New(rand.NewSource(1)), 4, GenConfig{MinLatency: 0, MaxLatency: 1, MinBandwidth: 0, MaxBandwidth: 0})
}

func TestWalkerStaysWithinClamp(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	base := RandomPerf(rng, 8, GustoGuided())
	w := NewWalker(rng, base, Drift{RelStep: 0.3, MinFactor: 0.5, MaxFactor: 2})
	for step := 0; step < 200; step++ {
		cur := w.Step()
		for i := 0; i < cur.N(); i++ {
			for j := 0; j < cur.N(); j++ {
				if i == j {
					continue
				}
				f := cur.At(i, j).Bandwidth / base.At(i, j).Bandwidth
				if f < 0.5-1e-9 || f > 2+1e-9 {
					t.Fatalf("step %d: bandwidth factor %g outside clamp", step, f)
				}
				if cur.At(i, j).Latency != base.At(i, j).Latency {
					t.Fatal("drift must not change latency")
				}
			}
		}
	}
}

func TestWalkerCurrentIsCopy(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	base := Gusto()
	w := NewWalker(rng, base, DefaultDrift())
	c := w.Current()
	c.Set(0, 1, PairPerf{Latency: 99, Bandwidth: 1})
	if w.Current().At(0, 1).Latency == 99 {
		t.Error("Current() leaked internal state")
	}
}

func TestTopologyPathSameSite(t *testing.T) {
	topo := ExampleTopology(3)
	path, err := topo.Path(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != 1 || path[0].Name != "lan1" {
		t.Errorf("same-site path = %v, want just lan1", path)
	}
}

func TestTopologyPathCrossSite(t *testing.T) {
	topo := ExampleTopology(2)
	// Host 0 is at Site1, host 5 at Site3; route is lan1, t3, atm, lan3
	// because sites 1 and 3 have no direct link.
	path, err := topo.Path(0, 5)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, l := range path {
		names = append(names, l.Name)
	}
	want := []string{"lan1", "t3-1-2", "atm-2-3", "lan3"}
	if len(names) != len(want) {
		t.Fatalf("path = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("path = %v, want %v", names, want)
		}
	}
}

func TestTopologyPairPerfBottleneck(t *testing.T) {
	topo := ExampleTopology(2)
	pp, err := topo.PairPerf(0, 2) // Site1 -> Site2 over the 45 Mbit t3
	if err != nil {
		t.Fatal(err)
	}
	// Bottleneck is Site2's 10 Mbit LAN.
	if got, want := BytesPerSecondToKbps(pp.Bandwidth), 10_000.0; math.Abs(got-want) > 1e-6 {
		t.Errorf("bottleneck bandwidth = %g kbps, want %g", got, want)
	}
	wantLat := 0.001 + 0.020 + 0.002
	if math.Abs(pp.Latency-wantLat) > 1e-12 {
		t.Errorf("latency = %g, want %g", pp.Latency, wantLat)
	}
}

func TestTopologyPerfSelfFree(t *testing.T) {
	topo := ExampleTopology(2)
	p, err := topo.Perf()
	if err != nil {
		t.Fatal(err)
	}
	if p.N() != 6 {
		t.Fatalf("hosts = %d, want 6", p.N())
	}
	if p.TransferTime(3, 3, 1<<30) != 0 {
		t.Error("self transfer should be free")
	}
	if err := p.Validate(); err != nil {
		t.Errorf("flattened table invalid: %v", err)
	}
}

func TestTopologyUnreachable(t *testing.T) {
	topo := NewTopology([]Site{
		{Name: "A", Hosts: 1, LAN: Link{Name: "lanA", Latency: 0.001, Bandwidth: 1e6}},
		{Name: "B", Hosts: 1, LAN: Link{Name: "lanB", Latency: 0.001, Bandwidth: 1e6}},
	})
	if _, err := topo.Path(0, 1); err == nil {
		t.Error("expected error for unreachable site pair")
	}
}

func TestTopologyHostOutOfRange(t *testing.T) {
	topo := ExampleTopology(1)
	if _, err := topo.Path(-1, 0); err == nil {
		t.Error("expected error for negative host")
	}
	if _, err := topo.Path(0, 99); err == nil {
		t.Error("expected error for host beyond range")
	}
}

func TestTopologyMultiHopRouting(t *testing.T) {
	// A - B - C chain plus a slow direct A-C link; Dijkstra on latency
	// should prefer the two-hop fast path.
	topo := NewTopology([]Site{
		{Name: "A", Hosts: 1, LAN: Link{Name: "lanA", Latency: 0.001, Bandwidth: 1e7}},
		{Name: "B", Hosts: 1, LAN: Link{Name: "lanB", Latency: 0.001, Bandwidth: 1e7}},
		{Name: "C", Hosts: 1, LAN: Link{Name: "lanC", Latency: 0.001, Bandwidth: 1e7}},
	})
	topo.ConnectSites(0, 1, Link{Name: "ab", Latency: 0.002, Bandwidth: 1e7})
	topo.ConnectSites(1, 2, Link{Name: "bc", Latency: 0.002, Bandwidth: 1e7})
	topo.ConnectSites(0, 2, Link{Name: "ac-slow", Latency: 0.100, Bandwidth: 1e7})
	path, err := topo.Path(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != 4 { // lanA, ab, bc, lanC
		t.Fatalf("path length = %d, want 4 (two-hop route)", len(path))
	}
	if path[1].Name != "ab" || path[2].Name != "bc" {
		t.Errorf("unexpected route %v", path)
	}
}

func TestSharedPerfDividesBandwidth(t *testing.T) {
	topo := ExampleTopology(2)
	// Two flows from Site1 to Site2 share lan1, t3, lan2.
	flows := []Flow{{Src: 0, Dst: 2}, {Src: 1, Dst: 3}}
	shared, err := topo.SharedPerf(flows)
	if err != nil {
		t.Fatal(err)
	}
	solo, err := topo.PairPerf(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	got := shared.At(0, 2).Bandwidth
	want := solo.Bandwidth / 2 // bottleneck LAN2 shared by both flows
	if math.Abs(got-want) > 1e-6 {
		t.Errorf("shared bandwidth = %g, want %g", got, want)
	}
	// A pair not in the flow set sees unshared bandwidth... except when
	// the contending flows load its links; here (4,5) is inside Site3
	// and is untouched.
	if shared.At(4, 5) != mustPair(t, topo, 4, 5) {
		t.Error("uninvolved pair should see unshared performance")
	}
}

func mustPair(t *testing.T, topo *Topology, i, j int) PairPerf {
	t.Helper()
	pp, err := topo.PairPerf(i, j)
	if err != nil {
		t.Fatal(err)
	}
	return pp
}

func TestSharedPerfIgnoresDuplicatesAndSelf(t *testing.T) {
	topo := ExampleTopology(2)
	flows := []Flow{{Src: 0, Dst: 2}, {Src: 0, Dst: 2}, {Src: 1, Dst: 1}}
	shared, err := topo.SharedPerf(flows)
	if err != nil {
		t.Fatal(err)
	}
	solo, err := topo.PairPerf(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(shared.At(0, 2).Bandwidth-solo.Bandwidth) > 1e-6 {
		t.Error("duplicate flow should be counted once (no sharing)")
	}
}

func TestHostNames(t *testing.T) {
	topo := ExampleTopology(2)
	names := topo.HostNames()
	if len(names) != 6 {
		t.Fatalf("names = %v", names)
	}
	if names[0] != "Site1/0" || names[3] != "Site2/1" || names[5] != "Site3/1" {
		t.Errorf("unexpected names %v", names)
	}
}

func TestTopologySiteAccessors(t *testing.T) {
	topo := ExampleTopology(3)
	if topo.Sites() != 3 || topo.Hosts() != 9 {
		t.Fatalf("sites=%d hosts=%d", topo.Sites(), topo.Hosts())
	}
	if topo.Site(1).Name != "Site2" {
		t.Error("Site(1) should be Site2")
	}
}

func TestDiurnalProfile(t *testing.T) {
	p, err := DiurnalProfile(5, 100, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// Multiplier stays within [0.5, 1.5] and oscillates.
	seen := map[bool]bool{}
	for _, tm := range []float64{0, 10, 25, 40, 60, 75, 90} {
		v := p(0, 1, tm)
		if v < 0.5-1e-9 || v > 1.5+1e-9 {
			t.Fatalf("multiplier %g outside depth band at t=%g", v, tm)
		}
		seen[v > 1] = true
	}
	if !seen[true] || !seen[false] {
		t.Error("profile never crossed 1 — not oscillating")
	}
	// Different sources peak at different phases.
	if p(0, 1, 25) == p(1, 0, 25) {
		t.Error("phases should differ per source")
	}
}

func TestDiurnalProfileValidation(t *testing.T) {
	if _, err := DiurnalProfile(5, 0, 0.5); err == nil {
		t.Error("zero period accepted")
	}
	if _, err := DiurnalProfile(5, 100, 1); err == nil {
		t.Error("depth 1 accepted")
	}
	if _, err := DiurnalProfile(0, 100, 0.5); err == nil {
		t.Error("zero size accepted")
	}
}

func TestSampleProfile(t *testing.T) {
	base := Gusto()
	p, err := DiurnalProfile(5, 100, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	s := SampleProfile(base, p, 25)
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			if i == j {
				continue
			}
			if s.At(i, j).Latency != base.At(i, j).Latency {
				t.Fatal("profile must not change latency")
			}
			ratio := s.At(i, j).Bandwidth / base.At(i, j).Bandwidth
			if ratio < 0.7-1e-9 || ratio > 1.3+1e-9 {
				t.Fatalf("bandwidth ratio %g outside depth band", ratio)
			}
		}
	}
	// A flat profile is the identity.
	flat := SampleProfile(base, func(int, int, float64) float64 { return 1 }, 42)
	if flat.At(0, 1) != base.At(0, 1) {
		t.Error("flat profile changed the table")
	}
}

func TestNewPerfNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewPerf(-1) did not panic")
		}
	}()
	NewPerf(-1)
}
