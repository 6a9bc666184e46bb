package session

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/mac"
	"repro/internal/radio"
)

// leakCheck snapshots the goroutine count and returns an assertion that it
// came back to (near) baseline, retrying while stragglers unwind.
func leakCheck(t *testing.T) func() {
	t.Helper()
	before := runtime.NumGoroutine()
	return func() {
		t.Helper()
		deadline := time.Now().Add(3 * time.Second)
		for {
			after := runtime.NumGoroutine()
			if after <= before {
				return
			}
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<16)
				n := runtime.Stack(buf, true)
				t.Fatalf("goroutine leak: %d before, %d after\n%s", before, after, buf[:n])
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// capSink is a concurrency-safe byte sink keyed by session.
type capSink struct {
	mu   sync.Mutex
	bufs map[uint64]*bytes.Buffer
}

func newCapSink() *capSink { return &capSink{bufs: make(map[uint64]*bytes.Buffer)} }

func (cs *capSink) New(id uint64) io.Writer {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	b := &bytes.Buffer{}
	cs.bufs[id] = b
	return syncWriter{mu: &cs.mu, w: b}
}

func (cs *capSink) Bytes(id uint64) []byte {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if b := cs.bufs[id]; b != nil {
		return append([]byte(nil), b.Bytes()...)
	}
	return nil
}

type syncWriter struct {
	mu *sync.Mutex
	w  io.Writer
}

func (s syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

// startGateway runs a gateway until the test ends (or stop is called).
func startGateway(t *testing.T, cfg Config) (*Gateway, func()) {
	t.Helper()
	gw, err := NewGateway(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- gw.Run(ctx) }()
	var once sync.Once
	stop := func() {
		once.Do(func() {
			cancel()
			if err := <-done; err != nil {
				t.Errorf("gateway run: %v", err)
			}
		})
	}
	t.Cleanup(stop)
	return gw, stop
}

// waitStats polls until the condition holds — completion accounting lands
// only after the drain linger expires, so snapshots right after a Send
// still see the session draining.
func waitStats(t *testing.T, gw *Gateway, ok func(Stats) bool) Stats {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := gw.Stats()
		if ok(st) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("stats condition never met: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func testPayload(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	b := make([]byte, n)
	rng.Read(b)
	return b
}

func TestGatewayTransferEndToEnd(t *testing.T) {
	assertNoLeak := leakCheck(t)
	sink := newCapSink()
	gw, stop := startGateway(t, Config{Listen: "127.0.0.1:0", NewSink: sink.New})

	data := testPayload(200*1024+37, 1)
	c, err := NewClient(ClientConfig{Addr: gw.Addr().String(), SessionID: 77,
		Rand: rand.New(rand.NewSource(2))})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Send(context.Background(), data); err != nil {
		t.Fatal(err)
	}
	if got := sink.Bytes(77); !bytes.Equal(got, data) {
		t.Fatalf("sink holds %d bytes, want %d (content mismatch: %v)",
			len(got), len(data), !bytes.Equal(got, data))
	}
	waitStats(t, gw, func(st Stats) bool { return st.Completed == 1 && st.Failed == 0 })
	stop()
	assertNoLeak()
}

func TestGatewayZeroLengthTransfer(t *testing.T) {
	gw, _ := startGateway(t, Config{Listen: "127.0.0.1:0"})
	c, err := NewClient(ClientConfig{Addr: gw.Addr().String(),
		Rand: rand.New(rand.NewSource(3))})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Send(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	waitStats(t, gw, func(st Stats) bool { return st.Completed == 1 })
}

func TestGatewayManyConcurrentSessions(t *testing.T) {
	assertNoLeak := leakCheck(t)
	sink := newCapSink()
	gw, stop := startGateway(t, Config{Listen: "127.0.0.1:0", NewSink: sink.New})

	const n = 24
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			id := uint64(1000 + i)
			data := testPayload(8*1024+i, int64(100+i))
			c, err := NewClient(ClientConfig{Addr: gw.Addr().String(), SessionID: id,
				Rand: rand.New(rand.NewSource(int64(200 + i)))})
			if err != nil {
				errs <- err
				return
			}
			if err := c.Send(context.Background(), data); err != nil {
				errs <- fmt.Errorf("session %d: %w", id, err)
				return
			}
			if !bytes.Equal(sink.Bytes(id), data) {
				errs <- fmt.Errorf("session %d: sink mismatch", id)
				return
			}
			errs <- nil
		}(i)
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	waitStats(t, gw, func(st Stats) bool { return st.Completed == n && st.Failed == 0 })
	stop()
	assertNoLeak()
}

// TestClientReconnectResume kills the client's socket mid-transfer; the
// client must reconnect, RESUME, rewind to the gateway's contiguous offset,
// and still deliver a byte-identical stream.
func TestClientReconnectResume(t *testing.T) {
	assertNoLeak := leakCheck(t)
	sink := newCapSink()
	gw, stop := startGateway(t, Config{Listen: "127.0.0.1:0", NewSink: sink.New})

	data := testPayload(300*1024, 4)
	c, err := NewClient(ClientConfig{Addr: gw.Addr().String(), SessionID: 88,
		Rand: rand.New(rand.NewSource(5))})
	if err != nil {
		t.Fatal(err)
	}
	// Kill the socket once the transfer demonstrably started.
	killed := make(chan struct{})
	go func() {
		defer close(killed)
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if len(sink.Bytes(88)) > 0 {
				c.Kill()
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	if err := c.Send(context.Background(), data); err != nil {
		t.Fatal(err)
	}
	<-killed
	if got := sink.Bytes(88); !bytes.Equal(got, data) {
		t.Fatalf("sink holds %d bytes, want %d", len(got), len(data))
	}
	if c.Reconnects < 1 {
		t.Fatalf("client never reconnected (kill raced completion?) reconnects=%d", c.Reconnects)
	}
	if len(c.Recoveries) != c.Reconnects {
		t.Fatalf("recovery samples %d != reconnects %d", len(c.Recoveries), c.Reconnects)
	}
	waitStats(t, gw, func(st Stats) bool { return st.Completed == 1 && st.Reconnects >= 1 })
	stop()
	assertNoLeak()
}

// TestGatewayRestartResume restarts the whole gateway process mid-stream.
// The replacement holds no session state, so RESUME re-creates the session
// from offset zero and the client rewinds and completes the transfer.
func TestGatewayRestartResume(t *testing.T) {
	sink1 := newCapSink()
	gw1, err := NewGateway(Config{Listen: "127.0.0.1:0", NewSink: sink1.New})
	if err != nil {
		t.Fatal(err)
	}
	addr := gw1.Addr().String()
	ctx1, cancel1 := context.WithCancel(context.Background())
	done1 := make(chan error, 1)
	go func() { done1 <- gw1.Run(ctx1) }()

	data := testPayload(400*1024, 6)
	c, err := NewClient(ClientConfig{Addr: addr, SessionID: 99,
		MaxReconnects: 10, Rand: rand.New(rand.NewSource(7))})
	if err != nil {
		t.Fatal(err)
	}

	sink2 := newCapSink()
	restarted := make(chan error, 1)
	go func() {
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) && len(sink1.Bytes(99)) == 0 {
			time.Sleep(time.Millisecond)
		}
		// Tear the first gateway down completely, then bind a fresh one on
		// the same address — a peer restart with total state loss.
		cancel1()
		if err := <-done1; err != nil {
			restarted <- err
			return
		}
		gw2, err := NewGateway(Config{Listen: addr, NewSink: sink2.New})
		if err != nil {
			restarted <- err
			return
		}
		ctx2, cancel2 := context.WithCancel(context.Background())
		done2 := make(chan error, 1)
		go func() { done2 <- gw2.Run(ctx2) }()
		t.Cleanup(func() {
			cancel2()
			<-done2
		})
		restarted <- nil
	}()

	if err := c.Send(context.Background(), data); err != nil {
		t.Fatal(err)
	}
	if err := <-restarted; err != nil {
		t.Fatal(err)
	}
	if got := sink2.Bytes(99); !bytes.Equal(got, data) {
		t.Fatalf("replacement gateway holds %d bytes, want %d", len(got), len(data))
	}
	if c.Reconnects < 1 {
		t.Fatal("client never reconnected across the gateway restart")
	}
}

// rawSend speaks the wire protocol directly — a half-open peer for driving
// the gateway into states a well-behaved Client never produces.
func rawSend(t *testing.T, addr string, id uint64, m *Msg) *Client {
	t.Helper()
	c, err := NewClient(ClientConfig{Addr: addr, SessionID: id,
		Rand: rand.New(rand.NewSource(int64(id)))})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.dial(); err != nil {
		t.Fatal(err)
	}
	if err := c.sendMsg(m); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestGatewayIdleEvictionAndTombstone(t *testing.T) {
	assertNoLeak := leakCheck(t)
	gw, stop := startGateway(t, Config{
		Listen:      "127.0.0.1:0",
		IdleTimeout: 40 * time.Millisecond,
	})

	// Handshake, then go silent: the gateway must evict without help.
	c := rawSend(t, gw.Addr().String(), 555, &Msg{Kind: KindHello, Total: 4096, ChunkSize: 1024})
	defer c.closeConn()
	if m, err := c.readMsg(time.Now().Add(time.Second)); err != nil || m.Kind != KindHelloAck {
		t.Fatalf("handshake: %v %v", m, err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for gw.Stats().Failed == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("idle session never evicted: %+v", gw.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	st := gw.Stats()
	if st.FailReasons["idle-timeout"] != 1 {
		t.Fatalf("failure taxonomy: %+v", st.FailReasons)
	}
	if st.Active != 0 {
		t.Fatalf("evicted session still active: %+v", st)
	}

	// A late RESUME for the evicted session gets an honest RESET.
	if err := c.sendMsg(&Msg{Kind: KindResume, Total: 4096, ChunkSize: 1024}); err != nil {
		t.Fatal(err)
	}
	m, err := c.readMsg(time.Now().Add(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if m.Kind != KindReset || m.Reason != "evicted" {
		t.Fatalf("resume after eviction: %v %q", m.Kind, m.Reason)
	}
	stop()
	assertNoLeak()
}

func TestGatewayBusyReset(t *testing.T) {
	gw, _ := startGateway(t, Config{
		Listen:      "127.0.0.1:0",
		MaxSessions: 1,
		IdleTimeout: 5 * time.Second,
	})
	// Pin the single slot with a half-open session.
	c := rawSend(t, gw.Addr().String(), 1, &Msg{Kind: KindHello, Total: 1 << 20, ChunkSize: 1024})
	defer c.closeConn()
	if m, err := c.readMsg(time.Now().Add(time.Second)); err != nil || m.Kind != KindHelloAck {
		t.Fatalf("handshake: %v %v", m, err)
	}
	// The next session must fail closed with the capacity reason.
	c2, err := NewClient(ClientConfig{Addr: gw.Addr().String(), SessionID: 2,
		HandshakeRetries: 2, Rand: rand.New(rand.NewSource(9))})
	if err != nil {
		t.Fatal(err)
	}
	err = c2.Send(context.Background(), []byte("hello"))
	se, ok := err.(*SessionError)
	if !ok || se.Reason != "busy" {
		t.Fatalf("want busy SessionError, got %v", err)
	}
}

// TestFlowControlRespectsCredit scripts a gateway that grants two chunks of
// credit, below the client's ARQ window, and acknowledges a round only once
// the client falls quiet. The client learns nothing between acks, so every
// chunk it sends must lie below the last acknowledged offset plus the
// credit; the transfer must still complete.
func TestFlowControlRespectsCredit(t *testing.T) {
	const credit = 2
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	data := testPayload(64*1024, 10)
	c, err := NewClient(ClientConfig{Addr: conn.LocalAddr().String(), SessionID: 11,
		Rand: rand.New(rand.NewSource(11))})
	if err != nil {
		t.Fatal(err)
	}
	sent := make(chan error, 1)
	go func() { sent <- c.Send(context.Background(), data) }()

	var (
		peer     *net.UDPAddr
		txSeq    uint64
		got      []byte
		next     uint64                    // chunk index just past got
		buffered = make(map[uint64][]byte) // chunk index → payload past next
		acked    uint64                    // chunk index the last ack reported
		pending  bool                      // chunks arrived since the last ack
	)
	reply := func(m *Msg) {
		payload, err := AppendMessage(nil, m)
		if err != nil {
			t.Fatal(err)
		}
		txSeq++
		frame, err := radio.EncodeDataFrame(nil, radio.Header{Seq: txSeq, ID: 11}, payload)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.WriteToUDP(frame, peer); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]byte, 64*1024)
	for {
		wait := 5 * time.Second
		if pending {
			wait = 5 * time.Millisecond
		}
		if err := conn.SetReadDeadline(time.Now().Add(wait)); err != nil {
			t.Fatal(err)
		}
		n, from, err := conn.ReadFromUDP(buf)
		if pending && isTimeout(err) {
			// The client fell quiet: acknowledge its round.
			var bitmap uint64
			for i := range buffered {
				bitmap |= 1 << (i - next)
			}
			reply(&Msg{Kind: KindAck, Ack: mac.BlockAck{Start: uint16(next & 0x0FFF), Bitmap: bitmap},
				CumOffset: uint64(len(got)), Credit: credit})
			acked, pending = next, false
			continue
		}
		if err != nil {
			t.Fatalf("scripted gateway: %v", err)
		}
		peer = from
		h, err := radio.DecodeHeader(buf[:n])
		if err != nil {
			t.Fatal(err)
		}
		body, err := radio.DecodeDataPayload(h, buf[h.HeaderLen():n])
		if err != nil {
			t.Fatal(err)
		}
		m, err := DecodeMessage(body)
		if err != nil {
			t.Fatal(err)
		}
		switch m.Kind {
		case KindHello:
			reply(&Msg{Kind: KindHelloAck, ChunkSize: DefaultChunkBytes, Credit: credit})
		case KindData:
			offset, payload := splitChunk(m.Chunk)
			idx := offset / DefaultChunkBytes
			if idx >= acked+credit {
				t.Fatalf("client sent chunk %d with %d chunks acked and %d chunks of credit", idx, acked, credit)
			}
			if idx >= next {
				buffered[idx] = append([]byte(nil), payload...)
			}
			for b, ok := buffered[next]; ok; b, ok = buffered[next] {
				delete(buffered, next)
				got = append(got, b...)
				next++
			}
			pending = true
		case KindFin:
			reply(&Msg{Kind: KindFinAck})
			if err := <-sent; err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data) {
				t.Fatal("scripted gateway reassembled a different payload")
			}
			return
		default:
			t.Fatalf("unexpected %v from the client", m.Kind)
		}
	}
}

// TestGatewayShutdownFailsSessionsClosed cancels the gateway with sessions
// live: every worker must exit (no leaks) and the sessions must be
// accounted as failed with the shutdown reason.
func TestGatewayShutdownFailsSessionsClosed(t *testing.T) {
	assertNoLeak := leakCheck(t)
	gw, stop := startGateway(t, Config{Listen: "127.0.0.1:0"})
	c := rawSend(t, gw.Addr().String(), 777, &Msg{Kind: KindHello, Total: 1 << 20, ChunkSize: 1024})
	defer c.closeConn()
	if m, err := c.readMsg(time.Now().Add(time.Second)); err != nil || m.Kind != KindHelloAck {
		t.Fatalf("handshake: %v %v", m, err)
	}
	stop()
	st := gw.Stats()
	if st.Active != 0 || st.FailReasons["shutdown"] != 1 {
		t.Fatalf("shutdown accounting: %+v", st)
	}
	assertNoLeak()
}

// TestGatewayIgnoresGarbage floods the socket with junk: sample frames,
// truncated data frames, and raw noise must never disturb a live transfer.
func TestGatewayIgnoresGarbage(t *testing.T) {
	sink := newCapSink()
	gw, _ := startGateway(t, Config{Listen: "127.0.0.1:0", NewSink: sink.New})

	junkDone := make(chan struct{})
	go func() {
		defer close(junkDone)
		c, err := NewClient(ClientConfig{Addr: gw.Addr().String(), SessionID: 1234,
			Rand: rand.New(rand.NewSource(13))})
		if err != nil {
			return
		}
		if err := c.dial(); err != nil {
			return
		}
		defer c.closeConn()
		samples := [][]complex128{make([]complex128, 16)}
		frame, _ := radio.EncodeFrame(nil, radio.Header{Streams: 1, Count: 16}, samples)
		for i := 0; i < 200; i++ {
			conn := c.currentConn()
			conn.Write(frame)                        // sample frame at a session port
			conn.Write([]byte("not a frame at all")) // raw noise
			if len(frame) > 30 {
				conn.Write(frame[:30]) // truncated header
			}
		}
	}()

	data := testPayload(100*1024, 14)
	c, err := NewClient(ClientConfig{Addr: gw.Addr().String(), SessionID: 15,
		Rand: rand.New(rand.NewSource(15))})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Send(context.Background(), data); err != nil {
		t.Fatal(err)
	}
	<-junkDone
	if !bytes.Equal(sink.Bytes(15), data) {
		t.Fatal("garbage flood corrupted the transfer")
	}
	waitStats(t, gw, func(st Stats) bool { return st.Completed == 1 && st.Failed == 0 })
}
