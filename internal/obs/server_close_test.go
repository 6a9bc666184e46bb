package obs

import (
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestServerCloseBeforeListenPoisons pins the lifecycle contract: Close on a
// never-listening server is a clean no-op, but it poisons the server so a
// later Listen cannot resurrect it.
func TestServerCloseBeforeListenPoisons(t *testing.T) {
	srv, _, _ := testServer(t)
	if err := srv.Close(); err != nil {
		t.Fatalf("Close before Listen = %v", err)
	}
	if _, err := srv.Listen("127.0.0.1:0"); err == nil || !strings.Contains(err.Error(), "closed") {
		t.Fatalf("Listen after Close = %v, want already-closed error", err)
	}
	// And still idempotent afterwards.
	if err := srv.Close(); err != nil {
		t.Fatalf("second Close = %v", err)
	}
}

func TestServerDoubleListenFails(t *testing.T) {
	srv, _, _ := testServer(t)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if _, err := srv.Listen("127.0.0.1:0"); err == nil || !strings.Contains(err.Error(), "already listening") {
		t.Fatalf("second Listen = %v, want already-listening error", err)
	}
	// The first listener is unharmed by the refused second bind.
	resp, err := http.Get("http://" + addr.String() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
}

// TestServerCloseListenRace drives Close and Listen concurrently many times:
// whichever order they land in, afterwards no listener may be left serving —
// the invariant that lets a shutdown path race an init path safely.
func TestServerCloseListenRace(t *testing.T) {
	for i := 0; i < 25; i++ {
		srv, _, _ := testServer(t)
		var (
			wg       sync.WaitGroup
			addr     net.Addr
			listenEr error
		)
		wg.Add(2)
		go func() { defer wg.Done(); addr, listenEr = srv.Listen("127.0.0.1:0") }()
		go func() { defer wg.Done(); srv.Close() }()
		wg.Wait()
		srv.Close() // settle: if Listen won the race, tear it down now
		if listenEr != nil {
			continue // Close won; nothing was ever bound
		}
		d := net.Dialer{Timeout: 500 * time.Millisecond}
		conn, err := d.Dial("tcp", addr.String())
		if err == nil {
			conn.Close()
			t.Fatalf("iteration %d: listener still accepting after Close", i)
		}
	}
}

// TestServerHandleExtraRoute mounts a route through the Handle seam and
// serves it through a real Listen — the path that once deadlocked when
// Listen built the mux while holding the state lock.
func TestServerHandleExtraRoute(t *testing.T) {
	srv, _, _ := testServer(t)
	srv.Handle("/extra", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprint(w, "mounted")
	}))
	done := make(chan net.Addr, 1)
	errc := make(chan error, 1)
	go func() {
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			errc <- err
			return
		}
		done <- addr
	}()
	var addr net.Addr
	select {
	case addr = <-done:
	case err := <-errc:
		t.Fatal(err)
	case <-time.After(5 * time.Second):
		t.Fatal("Listen wedged (mux built under the state lock?)")
	}
	defer srv.Close()

	for _, path := range []string{"/extra", "/metrics"} {
		resp, err := http.Get("http://" + addr.String() + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d", path, resp.StatusCode)
		}
	}
}

// TestServerCloseEndsContextBoundHandlers pins that Close cancels request
// contexts before it drains: a mounted handler that waits on its context,
// as a /stream subscriber or a long pprof profile does, must end at once
// instead of holding Close for the whole ShutdownTimeout.
func TestServerCloseEndsContextBoundHandlers(t *testing.T) {
	srv, _, _ := testServer(t)
	srv.ShutdownTimeout = 5 * time.Second
	entered := make(chan struct{})
	var once sync.Once
	srv.Handle("/wait", http.HandlerFunc(func(_ http.ResponseWriter, r *http.Request) {
		once.Do(func() { close(entered) })
		<-r.Context().Done()
	}))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		if resp, err := http.Get("http://" + addr.String() + "/wait"); err == nil {
			resp.Body.Close()
		}
	}()
	<-entered
	start := time.Now()
	if err := srv.Close(); err != nil {
		t.Fatalf("Close = %v", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("Close took %v with a context-bound handler in flight", d)
	}
}
