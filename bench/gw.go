package main

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"sync"
	"time"

	"repro/internal/radio"
	"repro/internal/session"
)

// The gateway workload: two closed-loop clients of one in-process gateway
// over loopback UDP, one moving bulk transfers and one small ones.
const (
	bulkBytes  = 1 << 20
	smallBytes = 16 << 10
	// gwPoolSize payloads per client are dealt in turn.
	gwPoolSize = 4
	// sendTimeout bounds one transfer; the client fails closed well before.
	sendTimeout = 30 * time.Second
)

const (
	bulkClient = iota
	smallClient
)

type gwHarness struct {
	gw     *session.Gateway
	cancel context.CancelFunc
	done   chan error
	seed   int64
	pools  [2][][]byte
	spans  *spanLog
	mu     sync.Mutex
	sinks  map[uint64]*checkSink
	next   [2]uint64
}

func setupGw(seed int64, spans *spanLog, _ *tally) (harness, error) {
	h := &gwHarness{
		seed:  seed,
		spans: spans,
		done:  make(chan error, 1),
		sinks: map[uint64]*checkSink{},
	}
	h.pools = gwPoolsFor(seed)
	gw, err := session.NewGateway(session.Config{Listen: "127.0.0.1:0", NewSink: h.sink})
	if err != nil {
		return nil, err
	}
	h.gw = gw
	ctx, cancel := context.WithCancel(context.Background())
	h.cancel = cancel
	go func() { h.done <- gw.Run(ctx) }()
	return h, nil
}

// gwPools makes each client's seeded payloads.
func gwPools(seed int64) [2][][]byte {
	var p [2][][]byte
	p[bulkClient] = payloads(mix(seed, 2), gwPoolSize, bulkBytes)
	p[smallClient] = payloads(mix(seed, 3), gwPoolSize, smallBytes)
	return p
}

// gwInputs keeps the last seed's payload pools, so that the repeated
// set-ups of one run generate them once. They are the workload's inputs,
// not work the gateway does: filling them takes about a thousand times as
// long as starting the gateway, and that time swings by half from run to
// run with the state of the heap.
var gwInputs struct {
	seed  int64
	pools *[2][][]byte
}

func gwPoolsFor(seed int64) [2][][]byte {
	if gwInputs.pools == nil || gwInputs.seed != seed {
		p := gwPools(seed)
		gwInputs.seed, gwInputs.pools = seed, &p
	}
	return *gwInputs.pools
}

// sink hands the gateway the checker registered for a session.
func (h *gwHarness) sink(id uint64) io.Writer {
	h.mu.Lock()
	defer h.mu.Unlock()
	if s := h.sinks[id]; s != nil {
		return s
	}
	return &checkSink{bad: true}
}

func (h *gwHarness) close() {
	h.cancel()
	<-h.done
}

func (h *gwHarness) run(d time.Duration, traced bool, t *tally) error {
	before := h.gw.Stats()
	start := wall.Now()
	end := start.Add(d)
	stopPeak := make(chan struct{})
	peakDone := make(chan struct{})
	if traced {
		go h.samplePeak(t, stopPeak, peakDone)
	} else {
		close(peakDone)
	}
	var wg sync.WaitGroup
	for k := range h.pools {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for i := 0; wall.Now().Before(end); i++ {
				h.transfer(k, h.pools[k][i%len(h.pools[k])], traced, t)
			}
		}(k)
	}
	wg.Wait()
	close(stopPeak)
	<-peakDone
	after := h.gw.Stats()
	t.add("session.gw_window_drops", float64(after.WindowDrops-before.WindowDrops))
	t.add("session.gw_dgrams_dropped", float64(after.Dropped-before.Dropped))
	t.add("session.gw_resets_sent", float64(after.ResetsSent-before.ResetsSent))
	t.add("session.reconnects", float64(after.Reconnects-before.Reconnects))
	return nil
}

// samplePeak records the most sessions the gateway held at once.
func (h *gwHarness) samplePeak(t *tally, stop, done chan struct{}) {
	defer close(done)
	tick := wall.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	peak := 0
	for {
		if n := len(h.gw.Sessions()); n > peak {
			peak = n
		}
		select {
		case <-stop:
			t.sample("session.live_sessions", float64(peak))
			return
		case <-tick.C:
		}
	}
}

// transfer moves one payload through a fresh client session and checks
// that the gateway's sink received exactly those bytes.
func (h *gwHarness) transfer(k int, payload []byte, traced bool, t *tally) {
	h.mu.Lock()
	h.next[k]++
	id := uint64(mix(h.seed, uint64(k+4)<<40|h.next[k])) | 1
	sink := &checkSink{want: payload}
	h.sinks[id] = sink
	h.mu.Unlock()
	defer func() {
		h.mu.Lock()
		delete(h.sinks, id)
		h.mu.Unlock()
	}()

	cfg := session.ClientConfig{Addr: h.gw.Addr().String(), SessionID: id,
		Rand: rand.New(rand.NewSource(int64(id)))}
	var tap *wireTap
	if traced {
		tap = &wireTap{t: t}
		cfg.Intercept = tap.intercept
	}
	c, err := session.NewClient(cfg)
	if err != nil {
		t.outcome(false, wall.Now(), 0)
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), sendTimeout)
	t0 := wall.Now()
	err = c.Send(ctx, payload)
	t1 := wall.Now()
	cancel()
	ok := err == nil && sink.complete()
	if err == nil && !ok {
		t.mismatch()
	}
	t.outcome(ok, t1, len(payload))
	if !ok {
		return
	}
	if k == smallClient {
		t.op("", t1.Sub(t0))
		t.sample("session.small_ms", ms(t1.Sub(t0)))
	} else {
		t.sample("session.bulk_ms", ms(t1.Sub(t0)))
	}
	if tap != nil {
		tap.finish(h.spans, id, t0, t1, len(payload))
	}
}

// checkSink compares a session's reassembled stream with the bytes sent.
// The gateway's session worker writes it; the client goroutine reads it
// after Send returns.
type checkSink struct {
	mu   sync.Mutex
	want []byte
	off  int
	bad  bool
}

func (s *checkSink) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.off+len(p) > len(s.want) || !bytes.Equal(p, s.want[s.off:s.off+len(p)]) {
		s.bad = true
	}
	s.off += len(p)
	return len(p), nil
}

func (s *checkSink) complete() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.bad && s.off == len(s.want)
}

// wireTap classifies a client's outbound datagrams, seen through
// ClientConfig.Intercept, to time the handshake and the FIN exchange and
// to count what the transfer put on the wire.
type wireTap struct {
	t                     *tally
	hello, firstData, fin time.Time
	data, bytes           int
}

func (w *wireTap) intercept(d []byte) [][]byte {
	now := wall.Now()
	kind := classify(d)
	w.t.sample("session.codec_ns", float64(wall.Since(now).Nanoseconds()))
	w.bytes += len(d)
	switch kind {
	case session.KindHello:
		if w.hello.IsZero() {
			w.hello = now
		}
	case session.KindData:
		w.data++
		if w.firstData.IsZero() {
			w.firstData = now
		}
	case session.KindFin:
		if w.fin.IsZero() {
			w.fin = now
		}
	default:
		// Acks, resumes and resets time nothing; their bytes count above.
	}
	return [][]byte{d}
}

// classify decodes a datagram's session message kind (0 if it has none).
func classify(d []byte) session.Kind {
	h, err := radio.DecodeHeader(d)
	if err != nil {
		return 0
	}
	body, err := radio.DecodeDataPayload(h, d[h.HeaderLen():])
	if err != nil {
		return 0
	}
	m, err := session.DecodeMessage(body)
	if err != nil {
		return 0
	}
	return m.Kind
}

// finish records the transfer's spans and wire counts.
func (w *wireTap) finish(l *spanLog, id uint64, start, end time.Time, payload int) {
	parent := l.add(0, "Send", id, start, end)
	if !w.hello.IsZero() && !w.firstData.IsZero() {
		w.t.sample("session.handshake_ms", ms(w.firstData.Sub(w.hello)))
		l.add(parent, "handshake", id, w.hello, w.firstData)
	}
	if !w.fin.IsZero() {
		w.t.sample("session.fin_ms", ms(end.Sub(w.fin)))
		l.add(parent, "fin", id, w.fin, end)
	}
	chunks := (payload + session.DefaultChunkBytes - 1) / session.DefaultChunkBytes
	w.t.add("session.data_dgrams", float64(w.data))
	w.t.add("session.chunks", float64(chunks))
	w.t.add("session.wire_bytes", float64(w.bytes))
	w.t.add("session.payload_bytes", float64(payload))
}
