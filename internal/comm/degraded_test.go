package comm

import (
	"errors"
	"sync"
	"testing"
	"time"

	"hetsched/internal/directory"
	"hetsched/internal/model"
	"hetsched/internal/netmodel"
)

// switchableSource is a Source whose availability and clock the test
// controls directly.
type switchableSource struct {
	mu   sync.Mutex
	perf *netmodel.Perf
	down bool
	now  time.Time
}

func (s *switchableSource) source() (*netmodel.Perf, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.down {
		return nil, errors.New("directory unreachable")
	}
	return s.perf.Clone(), nil
}

func (s *switchableSource) clock() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.now
}

func (s *switchableSource) set(down bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.down = down
}

func (s *switchableSource) setTable(perf *netmodel.Perf) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.perf = perf
}

func (s *switchableSource) advance(d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.now = s.now.Add(d)
}

// TestHealthLadderTransitions walks the full ladder with a fake clock:
// ok → stale (source down, cache young) → degraded (cache over the
// bound) → ok again once the source recovers.
func TestHealthLadderTransitions(t *testing.T) {
	src := &switchableSource{perf: netmodel.Gusto(), now: time.Unix(5000, 0)}
	c, err := New(5, src.source, Config{StaleBound: 30 * time.Second, Clock: src.clock})
	if err != nil {
		t.Fatal(err)
	}
	sizes := model.UniformSizes(5, 1<<20)

	// Rung 1: fresh.
	fresh, err := c.AllToAll(sizes)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Algorithm != "openshop" || c.Health() != HealthOK {
		t.Fatalf("fresh exchange: alg=%q health=%v", fresh.Algorithm, c.Health())
	}

	// Rung 2: source fails, cache is young → stale, planned with the
	// real scheduler on the cached (identical) table.
	src.set(true)
	src.advance(10 * time.Second)
	stale, err := c.AllToAll(sizes)
	if err != nil {
		t.Fatal(err)
	}
	if stale.Algorithm != "openshop+stale" || c.Health() != HealthStale {
		t.Fatalf("stale exchange: alg=%q health=%v", stale.Algorithm, c.Health())
	}
	if stale.CompletionTime() != fresh.CompletionTime() {
		t.Error("stale plan should equal the fresh plan on an unchanged table")
	}

	// Rung 3: cache ages past the bound → degraded caterpillar.
	src.advance(time.Minute)
	deg, err := c.AllToAll(sizes)
	if err != nil {
		t.Fatal(err)
	}
	if deg.Algorithm != "baseline+degraded" || c.Health() != HealthDegraded {
		t.Fatalf("degraded exchange: alg=%q health=%v", deg.Algorithm, c.Health())
	}
	if err := deg.Schedule.ValidateTotalExchange(nil); err != nil {
		t.Fatalf("degraded schedule invalid: %v", err)
	}

	// Recovery: source returns → ok, and the cache is refreshed.
	src.set(false)
	back, err := c.AllToAll(sizes)
	if err != nil {
		t.Fatal(err)
	}
	if back.Algorithm != "openshop" || c.Health() != HealthOK {
		t.Fatalf("recovered exchange: alg=%q health=%v", back.Algorithm, c.Health())
	}
	st := c.Stats()
	if st.ServedFresh != 2 || st.ServedStale != 1 || st.ServedDegraded != 1 {
		t.Errorf("ladder counters = %+v", st)
	}
}

// TestChaosCommunicatorSurvivesServerKill is the acceptance-criteria
// test: a Communicator planning against a live directory server keeps
// completing exchanges when the server is killed mid-run — first from
// the stale cache, then from the blind baseline — and recovers to ok
// when a server returns. Run under -race.
func TestChaosCommunicatorSurvivesServerKill(t *testing.T) {
	store, err := directory.NewStore(netmodel.Gusto(), netmodel.GustoSites)
	if err != nil {
		t.Fatal(err)
	}
	srv := directory.NewServer(store)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rc := directory.NewResilientClient(addr, directory.ResilientConfig{
		Retries:        2,
		BackoffBase:    time.Millisecond,
		BackoffMax:     2 * time.Millisecond,
		RequestTimeout: time.Second,
		DialTimeout:    100 * time.Millisecond,
	})
	defer rc.Close()

	// The strict source fails when the server is unreachable, so the
	// Communicator's own ladder — not the client's cache — decides.
	c, err := New(5, rc.Source(true), Config{StaleBound: 250 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	sizes := model.UniformSizes(5, 1<<20)

	run := func(wantErrFree string) {
		t.Helper()
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := 0; k < 5; k++ {
					r, err := c.AllToAll(sizes)
					if err != nil {
						t.Errorf("%s: exchange failed: %v", wantErrFree, err)
						return
					}
					if err := r.Schedule.ValidateTotalExchange(nil); err != nil {
						t.Errorf("%s: invalid schedule: %v", wantErrFree, err)
						return
					}
				}
			}()
		}
		wg.Wait()
	}

	run("server up")
	if c.Health() != HealthOK {
		t.Fatalf("health = %v with server up", c.Health())
	}

	// Kill the server mid-run: exchanges must keep completing.
	srv.Close()
	run("server down (stale window)")
	if h := c.Health(); h != HealthStale && h != HealthDegraded {
		t.Fatalf("health = %v right after kill, want stale or degraded", h)
	}

	// Once the cache ages past the bound, the ladder bottoms out at the
	// baseline — still no errors.
	time.Sleep(300 * time.Millisecond)
	run("server down (past stale bound)")
	if c.Health() != HealthDegraded {
		t.Fatalf("health = %v past the stale bound, want degraded", c.Health())
	}
	st := c.Stats()
	if st.ServedStale == 0 || st.ServedDegraded == 0 {
		t.Errorf("fallback ladder unused: %+v", st)
	}

	// A new server on the same address brings health back to ok.
	store2, err := directory.NewStore(netmodel.Gusto(), netmodel.GustoSites)
	if err != nil {
		t.Fatal(err)
	}
	srv2 := directory.NewServer(store2)
	if _, err := srv2.Listen(addr); err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	defer srv2.Close()
	run("server restarted")
	if c.Health() != HealthOK {
		t.Errorf("health = %v after restart, want ok", c.Health())
	}
}
