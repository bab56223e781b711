package obs

import (
	"net/http"
	"runtime"
	"strings"
	"testing"
)

// TestServeStopJoinsItsGoroutine: the shutdown function ServeHandler
// returns does not come back until the http serve loop has exited, so
// right after it returns — with no settle wait — no goroutine is left
// in (*http.Server).Serve. A stop that only closes the server lets the
// loop outlive it in a share of the rounds.
func TestServeStopJoinsItsGoroutine(t *testing.T) {
	const rounds = 200
	alive := 0
	buf := make([]byte, 1<<16)
	for i := 0; i < rounds; i++ {
		_, stop, err := ServeHandler("127.0.0.1:0", http.NotFoundHandler())
		if err != nil {
			t.Fatal(err)
		}
		if err := stop(); err != nil {
			t.Fatalf("round %d: stop: %v", i, err)
		}
		n := runtime.Stack(buf, true)
		for n == len(buf) {
			buf = make([]byte, 2*len(buf))
			n = runtime.Stack(buf, true)
		}
		if strings.Contains(string(buf[:n]), "net/http.(*Server).Serve(") {
			alive++
		}
	}
	if alive > 0 {
		t.Fatalf("the serve loop outlived stop in %d of %d rounds", alive, rounds)
	}
}
