package main

import (
	"bytes"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"hetsched/internal/directory"
	"hetsched/internal/netmodel"
	"hetsched/internal/obs"
)

// execute runs hcsim with args and returns what it printed.
func execute(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatalf("hcsim %v: %v\n%s", args, err, out.String())
	}
	return out.String()
}

// match returns the integer submatches of re in out, failing the test
// when out has no such line.
func match(t *testing.T, re, out string) []int {
	t.Helper()
	m := regexp.MustCompile(re).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no line matching %q in:\n%s", re, out)
	}
	ints := make([]int, len(m)-1)
	for i, s := range m[1:] {
		ints[i], _ = strconv.Atoi(s)
	}
	return ints
}

// TestExecuteCalibratesThroughCommunicator: -execute -calibrate plans
// and executes through a communicator that carries the calibrator, so
// every one of the P(P−1) measured transfers reaches the calibrator,
// accepted or rejected.
func TestExecuteCalibratesThroughCommunicator(t *testing.T) {
	out := execute(t, "-p", "5", "-execute", "-transport", "mem", "-calibrate")
	if !strings.Contains(out, "20/20 transfers delivered") || !strings.Contains(out, "dead: none") {
		t.Fatalf("the exchange was not clean:\n%s", out)
	}
	got := match(t, `calibration: (\d+) samples accepted, (\d+) rejected`, out)
	if got[0]+got[1] != 20 {
		t.Errorf("calibrator saw %d accepted + %d rejected samples, want 20:\n%s", got[0], got[1], out)
	}
}

// TestExecutePushesThroughCalibSink: with -calibrate-push the
// communicator's calibration sink is a live directory, and every push
// hcsim reports is one calibrate request that directory counted. One
// exchange rarely earns a pair trust, so zero pushes on both sides is
// a pass.
func TestExecutePushesThroughCalibSink(t *testing.T) {
	store, err := directory.NewStore(netmodel.Gusto(), nil)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.New()
	srv := directory.NewServer(store)
	srv.SetMetrics(reg)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	out := execute(t, "-p", "5", "-execute", "-transport", "mem", "-calibrate", "-calibrate-push", addr)
	pushes := match(t, `calibrate: (\d+) pushes of trusted pair estimates to \S+, (\d+) failed`, out)
	served := reg.Counter(obs.MetricDirectoryServerRequests, "", obs.L("op", directory.OpCalibrate)).Value()
	t.Logf("%d pushes reported, %d calibrate requests served", pushes[0], served)
	if uint64(pushes[0]) != served || pushes[1] != 0 {
		t.Errorf("hcsim reports %d pushes (%d failed), the directory served %d calibrate requests:\n%s",
			pushes[0], pushes[1], served, out)
	}
}
