package hetsched

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"hetsched/internal/netmodel"
	"hetsched/internal/sim"
)

// The facade tests exercise the public API end to end the way a
// downstream user would; they reach into internal packages only for
// constructors the facade does not carry.

func TestQuickstartFlow(t *testing.T) {
	perf := Gusto()
	m, err := BuildUniform(perf, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	res, err := OpenShop().Schedule(m)
	if err != nil {
		t.Fatal(err)
	}
	if res.CompletionTime() <= 0 || res.Ratio() < 1-1e-9 || res.Ratio() > 2+1e-9 {
		t.Errorf("t=%g ratio=%g", res.CompletionTime(), res.Ratio())
	}
	if out := RenderASCII(res.Schedule, RenderOptions{Rows: 8}); !strings.Contains(out, "t_max") {
		t.Error("render missing completion")
	}
}

func TestSchedulerRegistry(t *testing.T) {
	for _, name := range []string{"baseline", "baseline-barrier", "maxmatch", "minmatch", "greedy", "openshop"} {
		s, err := SchedulerByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if s.Name() != name {
			t.Errorf("ByName(%q).Name() = %q", name, s.Name())
		}
	}
	if OpenShop().Name() != "openshop" {
		t.Error("OpenShop() is not the registry's openshop")
	}
}

func TestCompareAndRender(t *testing.T) {
	results, err := Compare(ExampleMatrix())
	if err != nil {
		t.Fatal(err)
	}
	out := FormatComparison(results)
	if !strings.Contains(out, "openshop") {
		t.Error("comparison missing openshop")
	}
}

func TestMatrixTextRoundTrip(t *testing.T) {
	m := ExampleMatrix()
	back, err := ParseMatrix(FormatMatrix(m))
	if err != nil {
		t.Fatal(err)
	}
	if back.At(1, 2) != m.At(1, 2) {
		t.Error("round trip lost data")
	}
}

func TestWorkloadsViaFacade(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if sizes := WorkloadSizes(rng, DefaultWorkload(WorkloadServers, 8)); sizes.N() != 8 {
		t.Fatal("servers: wrong size")
	}
	tr, err := TransposeSizes(4, 8, 8, 8)
	if err != nil || tr.N() != 4 {
		t.Fatalf("transpose: %v", err)
	}
}

func TestSimulateViaFacade(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	perf := RandomPerf(rng, 6, GustoGuided())
	sizes := UniformSizes(6, 1<<18)
	m, err := Build(perf, sizes)
	if err != nil {
		t.Fatal(err)
	}
	res, err := OpenShop().Schedule(m)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := PlanFromSchedule(res.Schedule, sizes)
	if err != nil {
		t.Fatal(err)
	}
	exec, err := Simulate(perf, plan)
	if err != nil {
		t.Fatal(err)
	}
	if exec.Finish < m.LowerBound()-1e-9 {
		t.Error("simulated execution beats the lower bound")
	}
}

func TestDirectoryViaFacade(t *testing.T) {
	store, err := NewDirectory(Gusto(), GustoSites)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewDirectoryServer(store)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := DialDirectory(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	perf, names, _, err := cl.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if perf.N() != 5 || names[4] != "NCSA" {
		t.Error("directory snapshot wrong")
	}
	// Schedule straight off a directory snapshot — the paper's loop.
	m, err := BuildUniform(perf, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenShop().Schedule(m); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeSimulationVariants(t *testing.T) {
	topo := netmodel.NewTopology([]netmodel.Site{
		{Name: "A", Hosts: 2, LAN: netmodel.Link{Name: "lanA", Latency: 0.001, Bandwidth: 1e7}},
		{Name: "B", Hosts: 2, LAN: netmodel.Link{Name: "lanB", Latency: 0.001, Bandwidth: 1e7}},
	})
	topo.ConnectSites(0, 1, netmodel.Link{Name: "wan", Latency: 0.01, Bandwidth: 1e6})
	perf, err := topo.Perf()
	if err != nil {
		t.Fatal(err)
	}
	sizes := UniformSizes(4, 1<<16)
	m, err := Build(perf, sizes)
	if err != nil {
		t.Fatal(err)
	}
	r, err := OpenShop().Schedule(m)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := PlanFromSchedule(r.Schedule, sizes)
	if err != nil {
		t.Fatal(err)
	}
	net := sim.NewStatic(perf)
	excl, err := Simulate(perf, plan)
	if err != nil {
		t.Fatal(err)
	}
	inter, err := SimulateInterleaved(net, plan, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	buf, err := SimulateBuffered(net, plan, 4)
	if err != nil {
		t.Fatal(err)
	}
	lb := m.LowerBound()
	for name, got := range map[string]float64{"exclusive": excl.Finish, "interleaved": inter.Finish, "buffered": buf.Finish} {
		if got < lb-1e-9 {
			t.Errorf("%s finish %g below lower bound %g", name, got, lb)
		}
	}
}

func TestConstructorPanics(t *testing.T) {
	cases := map[string]func(){
		"bad walker drift": func() {
			netmodel.NewWalker(rand.New(rand.NewSource(1)), Gusto(), netmodel.Drift{RelStep: 2})
		},
		"self backbone": func() {
			topo := netmodel.NewTopology([]netmodel.Site{{Name: "A", Hosts: 1, LAN: netmodel.Link{Name: "l", Latency: 0.001, Bandwidth: 1e6}}})
			topo.ConnectSites(0, 0, netmodel.Link{})
		},
	}
	for name, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}
