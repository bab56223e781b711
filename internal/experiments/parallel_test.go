package experiments

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"hetsched/internal/leakcheck"
	"hetsched/internal/workload"
)

// The parallel engine's contract: any Workers setting yields output
// byte-identical to the sequential engine. These tests pin that down
// for RunFigure across all figure kinds and for every extension study
// via the package-level workers knob.

func TestForEachCell(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 16} {
		var mu sync.Mutex
		seen := make(map[int]int)
		if err := forEachCell(workers, 50, func(i int) error {
			mu.Lock()
			seen[i]++
			mu.Unlock()
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(seen) != 50 {
			t.Fatalf("workers=%d: visited %d of 50 cells", workers, len(seen))
		}
		for i, n := range seen {
			if n != 1 {
				t.Fatalf("workers=%d: cell %d visited %d times", workers, i, n)
			}
		}
	}
	// Zero cells is a no-op.
	if err := forEachCell(4, 0, func(int) error { t.Error("called"); return nil }); err != nil {
		t.Fatal(err)
	}
}

func TestForEachCellLowestIndexError(t *testing.T) {
	// Multiple failing cells: the lowest index must win regardless of
	// worker count, matching what a sequential loop would report, and
	// a failed run still joins every worker before it returns.
	leakcheck.Check(t, func() {
		for _, workers := range []int{1, 2, 8} {
			err := forEachCell(workers, 100, func(i int) error {
				if i == 17 || i == 3 || i == 80 {
					return fmt.Errorf("cell %d failed", i)
				}
				return nil
			})
			if err == nil || err.Error() != "cell 3 failed" {
				t.Errorf("workers=%d: got %v, want the index-3 error", workers, err)
			}
		}
		sentinel := errors.New("boom")
		if err := forEachCell(4, 10, func(i int) error { return sentinel }); !errors.Is(err, sentinel) {
			t.Errorf("error identity lost: %v", err)
		}
	})
}

func TestPoolSize(t *testing.T) {
	if got := poolSize(1, 100); got != 1 {
		t.Errorf("poolSize(1, 100) = %d", got)
	}
	if got := poolSize(8, 3); got != 3 {
		t.Errorf("poolSize(8, 3) = %d (should clamp to cells)", got)
	}
	if got := poolSize(0, 100); got < 1 {
		t.Errorf("poolSize(0, 100) = %d", got)
	}
	if got := poolSize(-5, 100); got < 1 {
		t.Errorf("poolSize(-5, 100) = %d", got)
	}
}

func TestSetDefaultWorkers(t *testing.T) {
	old := DefaultWorkers()
	defer SetDefaultWorkers(old)
	SetDefaultWorkers(3)
	if got := DefaultWorkers(); got != 3 {
		t.Errorf("DefaultWorkers() = %d after SetDefaultWorkers(3)", got)
	}
	// 0 is the GOMAXPROCS sentinel and is stored as-is; negative
	// inputs clamp to it.
	SetDefaultWorkers(0)
	if got := DefaultWorkers(); got != 0 {
		t.Errorf("DefaultWorkers() = %d after SetDefaultWorkers(0)", got)
	}
	SetDefaultWorkers(-7)
	if got := DefaultWorkers(); got != 0 {
		t.Errorf("DefaultWorkers() = %d after SetDefaultWorkers(-7)", got)
	}
}

func TestRunFigureParallelDeterminism(t *testing.T) {
	for _, kind := range workload.Kinds() {
		cfg := Config{Kind: kind, Ps: []int{4, 7, 10}, Trials: 3, Seed: 11}
		cfg.Workers = 1
		seq, err := RunFigure(cfg)
		if err != nil {
			t.Fatalf("%s sequential: %v", kind, err)
		}
		for _, workers := range []int{0, 2, 8} {
			cfg.Workers = workers
			par, err := RunFigure(cfg)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", kind, workers, err)
			}
			if !reflect.DeepEqual(seq.Cells, par.Cells) {
				t.Errorf("%s workers=%d: cells differ from sequential run", kind, workers)
			}
			if a, b := seq.FormatTable(), par.FormatTable(); a != b {
				t.Errorf("%s workers=%d: table rendering differs:\n%s\nvs\n%s", kind, workers, a, b)
			}
			if a, b := seq.FormatCSV(), par.FormatCSV(); a != b {
				t.Errorf("%s workers=%d: CSV rendering differs", kind, workers)
			}
		}
	}
}

func TestRunFigureRejectsBadP(t *testing.T) {
	for _, workers := range []int{1, 4} {
		cfg := Config{Kind: workload.Small, Ps: []int{4, 1}, Trials: 2, Seed: 1, Workers: workers}
		if _, err := RunFigure(cfg); err == nil {
			t.Errorf("workers=%d: P=1 accepted", workers)
		}
	}
}

// TestExtensionStudiesParallelDeterminism runs every extension study
// once sequentially and once on 8 workers via the package knob, and
// demands identical results and renderings.
func TestExtensionStudiesParallelDeterminism(t *testing.T) {
	old := DefaultWorkers()
	defer SetDefaultWorkers(old)

	studies := []struct {
		name string
		run  func() (any, string, error)
	}{
		{"tightness", func() (any, string, error) {
			rs, err := RunTightness([]int{4, 8, 12})
			if err != nil {
				return nil, "", err
			}
			return rs, FormatTightness(rs), nil
		}},
		{"alpha", func() (any, string, error) {
			rs, err := RunAlphaSweep(6, 3, 5, []float64{0, 0.5, 1})
			if err != nil {
				return nil, "", err
			}
			return rs, FormatAlpha(rs), nil
		}},
		{"buffer", func() (any, string, error) {
			rs, err := RunBufferSweep(6, 3, 5, []int{1, 2, 4})
			if err != nil {
				return nil, "", err
			}
			return rs, FormatBuffer(rs), nil
		}},
		{"incremental", func() (any, string, error) {
			rs, err := RunIncremental(6, 3, 5, []float64{0.1, 0.5})
			if err != nil {
				return nil, "", err
			}
			return rs, FormatIncremental(rs), nil
		}},
		{"checkpoint", func() (any, string, error) {
			rs, err := RunCheckpointStudy(6, 3, 5)
			if err != nil {
				return nil, "", err
			}
			return rs, FormatCheckpoint(rs), nil
		}},
		{"qos", func() (any, string, error) {
			rs, err := RunQoSStudy(6, 3, 5)
			if err != nil {
				return nil, "", err
			}
			return rs, FormatQoS(rs), nil
		}},
		{"gap", func() (any, string, error) {
			rs, err := RunOptimalityGap(5, 3, 5)
			if err != nil {
				return nil, "", err
			}
			return rs, FormatGap(rs, 5), nil
		}},
		{"critical", func() (any, string, error) {
			rs, err := RunCriticalStudy(6, 3, 5)
			if err != nil {
				return nil, "", err
			}
			return rs, FormatCritical(rs), nil
		}},
		{"indirect", func() (any, string, error) {
			rs, err := RunIndirectStudy(6, 3, 5, []int64{1 << 10, 1 << 20})
			if err != nil {
				return nil, "", err
			}
			return rs, FormatIndirect(rs), nil
		}},
		{"multinet", func() (any, string, error) {
			rs, err := RunMultinetStudy(6, 3, 5)
			if err != nil {
				return nil, "", err
			}
			return rs, FormatMultinet(rs), nil
		}},
		{"staging", func() (any, string, error) {
			rs, err := RunStagingStudy(6, 3, 24, 3, 5)
			if err != nil {
				return nil, "", err
			}
			return rs, FormatStaging(rs), nil
		}},
	}

	for _, st := range studies {
		SetDefaultWorkers(1)
		seqRes, seqText, err := st.run()
		if err != nil {
			t.Fatalf("%s sequential: %v", st.name, err)
		}
		SetDefaultWorkers(8)
		parRes, parText, err := st.run()
		if err != nil {
			t.Fatalf("%s parallel: %v", st.name, err)
		}
		if !reflect.DeepEqual(seqRes, parRes) {
			t.Errorf("%s: parallel results differ from sequential", st.name)
		}
		if seqText != parText {
			t.Errorf("%s: parallel rendering differs:\n%s\nvs\n%s", st.name, seqText, parText)
		}
	}
}
