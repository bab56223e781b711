package directory

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"hetsched/internal/calib"
	"hetsched/internal/netmodel"
)

// TestServerConcurrentStress hammers one TCP server from many client
// goroutines while a feeder mutates the store and a poller watches its
// version. Run under -race this is the package's concurrency proof; the
// assertions catch torn snapshots even without the detector.
func TestServerConcurrentStress(t *testing.T) {
	perf := netmodel.Gusto()
	store, err := NewStore(perf, netmodel.GustoSites)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(store)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	clients := 6
	iters := 30
	if testing.Short() {
		clients, iters = 3, 10
	}

	// Poller: the version must never decrease.
	stopPoll := make(chan struct{})
	pollDone := make(chan struct{})
	go func() {
		defer close(pollDone)
		var last uint64
		for {
			select {
			case <-stopPoll:
				return
			default:
			}
			v := store.Version()
			if v < last {
				t.Errorf("version went backwards: %d after %d", v, last)
				return
			}
			last = v
			time.Sleep(100 * time.Microsecond)
		}
	}()

	// Feeder: random-walk the whole table through the store while the
	// clients read and write.
	stopFeed := make(chan struct{})
	feedDone := make(chan struct{})
	go func() {
		defer close(feedDone)
		f := NewFeeder(store, rand.New(rand.NewSource(1)), netmodel.Drift{RelStep: 0.05, MinFactor: 0.5, MaxFactor: 2})
		for {
			select {
			case <-stopFeed:
				return
			default:
			}
			if _, err := f.Tick(); err != nil {
				t.Errorf("feeder: %v", err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	n := store.N()
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, err := Dial(addr, time.Second)
			if err != nil {
				t.Errorf("client %d: %v", g, err)
				return
			}
			defer c.Close()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			for k := 0; k < iters; k++ {
				src, dst := rng.Intn(n), rng.Intn(n)
				for src == dst {
					dst = rng.Intn(n)
				}
				pp, _, err := c.Query(src, dst)
				if err != nil {
					t.Errorf("client %d query: %v", g, err)
					return
				}
				if !pp.Valid() {
					t.Errorf("client %d: query returned invalid perf %+v", g, pp)
					return
				}
				snap, names, _, err := c.Snapshot()
				if err != nil {
					t.Errorf("client %d snapshot: %v", g, err)
					return
				}
				if snap.N() != n || len(names) != n {
					t.Errorf("client %d: torn snapshot (n=%d, names=%d)", g, snap.N(), len(names))
					return
				}
				if err := snap.Validate(); err != nil {
					t.Errorf("client %d: snapshot invalid: %v", g, err)
					return
				}
				up := calib.Update{Src: src, Dst: dst, Latency: pp.Latency, Bandwidth: pp.Bandwidth * (0.9 + 0.2*rng.Float64())}
				if applied, _, _, err := c.Calibrate([]calib.Update{up}, nil); err != nil || applied != 1 {
					t.Errorf("client %d update: applied %d, %v", g, applied, err)
					return
				}
				if _, err := c.Version(); err != nil {
					t.Errorf("client %d version: %v", g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(stopFeed)
	<-feedDone
	close(stopPoll)
	<-pollDone

	// Every client issued at least one write, so the version moved.
	if v := store.Version(); v < uint64(clients) {
		t.Errorf("version %d after %d writers", v, clients)
	}
}
