package radio

import (
	"context"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/flowgraph"
)

// startService runs a DatagramService with cfg's hooks on a loopback port and
// returns a socket dialed to it, Run's result channel and Run's cancel.
func startService(t *testing.T, cfg ServiceConfig) (*net.UDPConn, <-chan error, context.CancelFunc) {
	t.Helper()
	cfg.Listen, cfg.Ingress, cfg.Handler = "127.0.0.1:0", "test-ingress", "test-handler"
	svc, err := NewDatagramService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- svc.Run(ctx) }()
	conn, err := net.DialUDP("udp", nil, svc.Addr().(*net.UDPAddr))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cancel()
		conn.Close()
	})
	return conn, done, cancel
}

func sendData(t *testing.T, conn *net.UDPConn, id uint64) {
	t.Helper()
	b, err := EncodeDataFrame(nil, Header{ID: id}, []byte{byte(id)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(b); err != nil {
		t.Fatal(err)
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestServiceHandlesDataFramesOnly: a data frame reaches the handler with its
// header and payload; anything else is counted as corrupt.
func TestServiceHandlesDataFramesOnly(t *testing.T) {
	var handled, corrupt atomic.Int64
	var gotID atomic.Uint64
	conn, done, cancel := startService(t, ServiceConfig{
		Handle: func(h Header, payload []byte, _ *net.UDPAddr) {
			if len(payload) == 1 && payload[0] == byte(h.ID) {
				gotID.Store(h.ID)
			}
			handled.Add(1)
		},
		Corrupt: func() { corrupt.Add(1) },
	})
	conn.Write([]byte("not a frame")) //nolint:errcheck
	sample, err := EncodeFrame(nil, Header{Streams: 1, Count: 1}, [][]complex128{{1}})
	if err != nil {
		t.Fatal(err)
	}
	conn.Write(sample) //nolint:errcheck
	sendData(t, conn, 42)
	waitFor(t, "the data frame", func() bool { return handled.Load() == 1 })
	if gotID.Load() != 42 || corrupt.Load() != 2 {
		t.Errorf("handled ID %d with %d corrupt, want 42 with 2", gotID.Load(), corrupt.Load())
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Run after cancel: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run still blocked after cancel")
	}
}

// TestServiceRestartsAfterPanic: a handler that panics once keeps serving —
// the next datagram is handled.
func TestServiceRestartsAfterPanic(t *testing.T) {
	var calls, restarts atomic.Int64
	conn, _, _ := startService(t, ServiceConfig{
		Handle: func(Header, []byte, *net.UDPAddr) {
			if calls.Add(1) == 1 {
				panic("handler fault")
			}
		},
		OnRestart: func(string, int, error) { restarts.Add(1) },
	})
	sendData(t, conn, 1)
	waitFor(t, "the panic", func() bool { return calls.Load() == 1 })
	sendData(t, conn, 2)
	waitFor(t, "the datagram after the panic", func() bool { return calls.Load() == 2 })
	if restarts.Load() != 1 {
		t.Errorf("%d restarts, want 1", restarts.Load())
	}
}

// TestServiceRunReturnsWhenBudgetSpent: a handler that panics on every
// datagram exhausts the restart budget, and Run returns the BlockError
// promptly with no further traffic, ending the ingress block's parked read.
func TestServiceRunReturnsWhenBudgetSpent(t *testing.T) {
	var lastPanic atomic.Int64
	conn, done, _ := startService(t, ServiceConfig{
		Handle: func(Header, []byte, *net.UDPAddr) {
			lastPanic.Store(time.Now().UnixNano())
			panic("handler fault")
		},
	})
	// One datagram per attempt: the first plus four restarts.
	for id := uint64(1); id <= 5; id++ {
		sendData(t, conn, id)
	}
	select {
	case err := <-done:
		be, ok := flowgraph.AsBlockError(err)
		if !ok || be.Block != "test-handler" || be.Kind != flowgraph.KindPanic {
			t.Fatalf("Run returned %v, want the handler's panic BlockError", err)
		}
		if since := time.Since(time.Unix(0, lastPanic.Load())); since > time.Second {
			t.Errorf("Run returned %v after the last panic, want < 1s", since)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run still blocked after the restart budget was spent")
	}
}
