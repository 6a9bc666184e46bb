package session

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/mac"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/obs/stream"
	"repro/internal/radio"
)

// Config tunes a Gateway. The zero value of every optional field picks a
// production default; only Listen is required.
type Config struct {
	// Listen is the UDP address to bind (e.g. "127.0.0.1:0").
	Listen string

	// Clock is the injectable time source for all session deadlines.
	Clock clock.Clock
	// Logger receives structured session lifecycle events. Nil is silent.
	Logger *slog.Logger
	// Registry, when set, exposes gateway counters and gauges.
	Registry *obs.Registry
	// Recorder, when set, records per-session terminal evidence; failures
	// trip its OnFailure dump trigger.
	Recorder *flight.Recorder
	// Events, when set, receives the session journal — opened / resumed /
	// completed / failed transitions, supervisor restarts, and flight-dump
	// triggers — on the live telemetry stream. Nil publishes nothing (the
	// hub is nil-safe).
	Events *stream.Hub

	// IdleTimeout evicts a transfer with no datagrams at all for this
	// long — the fail-closed guarantee that an abandoned peer cannot pin
	// gateway state forever. Default 3s.
	IdleTimeout time.Duration
	// MaxSessions bounds concurrently live sessions; a HELLO beyond it is
	// answered with RESET "busy". Default 1024.
	MaxSessions int

	// Intercept, when set, sees every outbound datagram before
	// transmission and returns the datagrams to actually send — the
	// faults.Injector.MangleDatagram seam, applied on the gateway's
	// transmit side. The slice passed in is a private copy.
	Intercept func(datagram []byte) [][]byte

	// NewSink supplies the destination for each session's reassembled
	// byte stream. Nil discards payloads (the soak default — delivery is
	// judged by offsets and FCS, not by retention).
	NewSink func(sessionID uint64) io.Writer
}

// Gateway constants.
const (
	// handshakeTimeout evicts a session that never completes its first
	// exchange.
	handshakeTimeout = 2 * time.Second
	// drainLinger keeps a completed session around to re-acknowledge
	// duplicate FINs before its state is discarded.
	drainLinger = 200 * time.Millisecond
	// creditWindow is the flow-control grant: chunks a client may have
	// outstanding beyond the cumulative offset. At most 64, the Block Ack
	// bitmap; it equals the client's ARQ window.
	creditWindow = 32
	// mailboxDepth is each session worker's inbound queue; the demux drops
	// (never blocks) when a mailbox is full — UDP semantics end to end.
	mailboxDepth = 64
)

func (c Config) withDefaults() Config {
	c.Clock = clock.Or(c.Clock)
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = 3 * time.Second
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 1024
	}
	return c
}

// Stats is a point-in-time snapshot of gateway session accounting.
type Stats struct {
	Active      int64            `json:"active"`
	Opened      int64            `json:"opened"`
	Completed   int64            `json:"completed"`
	Failed      int64            `json:"failed"`
	Reconnects  int64            `json:"reconnects"`
	ResetsSent  int64            `json:"resets_sent"`
	Dropped     int64            `json:"datagrams_dropped"`
	Corrupt     int64            `json:"datagrams_corrupt"`
	WindowDrops int64            `json:"window_drops"`
	BytesStored int64            `json:"bytes_stored"`
	FailReasons map[string]int64 `json:"fail_reasons,omitempty"`
}

// SessionInfo is one live session's state as reported by the control API.
// The worker goroutine owns the underlying session; the fields here are
// mirrored through atomics after every step, so a snapshot never races it.
type SessionInfo struct {
	ID      uint64 `json:"id"`
	State   string `json:"state"`
	Bytes   uint64 `json:"bytes"`
	Total   uint64 `json:"total"`
	Resumes int    `json:"resumes"`
	// AgeSeconds is the session lifetime so far on the gateway clock.
	AgeSeconds float64 `json:"age_seconds"`
}

// Sessions snapshots every live session, sorted by ID — the control API's
// GET /api/sessions payload.
func (g *Gateway) Sessions() []SessionInfo {
	g.mu.Lock()
	workers := make([]*gwSession, 0, len(g.sessions))
	for _, s := range g.sessions {
		workers = append(workers, s)
	}
	g.mu.Unlock()
	out := make([]SessionInfo, 0, len(workers))
	for _, s := range workers {
		out = append(out, SessionInfo{
			ID:         s.id,
			State:      State(s.statState.Load()).String(),
			Bytes:      s.statCum.Load(),
			Total:      s.statTotal.Load(),
			Resumes:    int(s.statResumes.Load()),
			AgeSeconds: g.clk.Since(s.created).Seconds(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// inEnv is one decoded message delivered to a session worker.
type inEnv struct {
	msg  *Msg
	addr *net.UDPAddr
}

// maxTombstones bounds the remembered-endings ring: tombstones let late
// datagrams for a discarded session get the honest answer — FIN-ACK again
// for a completed transfer, RESET for an evicted one.
const maxTombstones = 4096

// Gateway is the long-running link service: one UDP socket serving many
// concurrent reliable sessions, each an isolated worker goroutine around a
// session Machine, with ingress and demultiplexing running on the supervised
// radio.DatagramService. Construct with NewGateway, drive with Run.
type Gateway struct {
	cfg Config
	clk clock.Clock
	log *slog.Logger
	rec *flight.Recorder
	hub *stream.Hub
	svc *radio.DatagramService

	mu        sync.Mutex
	sessions  map[uint64]*gwSession
	tombs     map[uint64]bool // id → completed
	tombOrder []uint64
	runCtx    context.Context

	wg sync.WaitGroup

	// Accounting: atomics for the hot paths, a mutex-guarded reason map
	// for the failure taxonomy.
	active, opened, completed, failed  atomic.Int64
	reconnects, resetsSent             atomic.Int64
	droppedDgrams, corruptDgrams       atomic.Int64
	windowDrops                        atomic.Int64
	bytesStored                        atomic.Int64
	reasonMu                           sync.Mutex
	failReasons                        map[string]int64
	cOpened, cCompleted, cFailed       *obs.Counter
	cReconnects, cResets               *obs.Counter
	cDropped, cCorrupt                 *obs.Counter
	gActive                            *obs.Gauge
	hSessionSeconds, hSessionKilobytes *obs.Histogram
}

// NewGateway binds the listen socket. Run must be called to serve.
func NewGateway(cfg Config) (*Gateway, error) {
	cfg = cfg.withDefaults()
	g := &Gateway{
		cfg:         cfg,
		clk:         cfg.Clock,
		log:         cfg.Logger,
		rec:         cfg.Recorder,
		hub:         cfg.Events,
		sessions:    make(map[uint64]*gwSession),
		tombs:       make(map[uint64]bool),
		failReasons: make(map[string]int64),
	}
	svc, err := radio.NewDatagramService(radio.ServiceConfig{
		Listen: cfg.Listen, Ingress: "gw-ingress", Handler: "gw-demux",
		Handle: g.route, Corrupt: g.corrupt, Intercept: cfg.Intercept,
		Clock: cfg.Clock, Logger: cfg.Logger, Registry: cfg.Registry,
		OnRestart: cfg.Events.PublishRestart,
	})
	if err != nil {
		return nil, err
	}
	g.svc = svc
	if reg := cfg.Registry; reg != nil {
		g.cOpened = reg.Counter("mimonet_gw_sessions_opened_total", "sessions accepted (HELLO or fresh RESUME)")
		g.cCompleted = reg.Counter("mimonet_gw_sessions_completed_total", "sessions that verified their transfer and drained")
		g.cFailed = reg.Counter("mimonet_gw_sessions_failed_total", "sessions that failed closed (timeout, reset, shutdown)")
		g.cReconnects = reg.Counter("mimonet_gw_reconnects_total", "RESUME re-attaches to live sessions")
		g.cResets = reg.Counter("mimonet_gw_resets_sent_total", "RESET datagrams sent (unknown session, capacity, eviction)")
		g.cDropped = reg.Counter("mimonet_gw_dgrams_dropped_total", "inbound datagrams dropped (queue overflow)")
		g.cCorrupt = reg.Counter("mimonet_gw_dgrams_corrupt_total", "inbound datagrams rejected (framing or FCS)")
		g.gActive = reg.Gauge("mimonet_gw_sessions_active", "currently live sessions")
		g.hSessionSeconds = reg.Histogram("mimonet_gw_session_seconds", "session lifetime from accept to close",
			[]float64{0.01, 0.05, 0.1, 0.5, 1, 5, 30, 120})
		g.hSessionKilobytes = reg.Histogram("mimonet_gw_session_kilobytes", "payload bytes stored per session, in KiB",
			[]float64{1, 4, 16, 64, 256, 1024})
	}
	return g, nil
}

// Addr returns the bound UDP address (useful with port 0).
func (g *Gateway) Addr() net.Addr { return g.svc.Addr() }

// Stats snapshots the gateway's session accounting.
func (g *Gateway) Stats() Stats {
	s := Stats{
		Active:      g.active.Load(),
		Opened:      g.opened.Load(),
		Completed:   g.completed.Load(),
		Failed:      g.failed.Load(),
		Reconnects:  g.reconnects.Load(),
		ResetsSent:  g.resetsSent.Load(),
		Dropped:     g.droppedDgrams.Load(),
		Corrupt:     g.corruptDgrams.Load(),
		WindowDrops: g.windowDrops.Load(),
		BytesStored: g.bytesStored.Load(),
	}
	g.reasonMu.Lock()
	if len(g.failReasons) > 0 {
		s.FailReasons = make(map[string]int64, len(g.failReasons))
		for k, v := range g.failReasons {
			s.FailReasons[k] = v
		}
	}
	g.reasonMu.Unlock()
	return s
}

// Run serves until ctx is cancelled, then shuts down: the socket closes,
// every live session fails closed with reason "shutdown", and Run returns
// only after all session workers and graph pumps have exited — the no-leak
// guarantee the soak harness asserts. A service block that exhausts its
// restart budget shuts the gateway down the same way, and Run returns its
// BlockError.
func (g *Gateway) Run(ctx context.Context) error {
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	g.mu.Lock()
	g.runCtx = runCtx
	g.mu.Unlock()
	err := g.svc.Run(runCtx)
	cancel()
	g.wg.Wait()
	if ctx.Err() != nil {
		// Cancellation is the normal way to stop a gateway.
		return nil
	}
	return err
}

// send encodes one session message and transmits it to addr as a data frame
// keyed by the session ID.
func (g *Gateway) send(id uint64, seq uint64, m *Msg, addr *net.UDPAddr) {
	if payload, err := AppendMessage(nil, m); err == nil {
		g.svc.Send(addr, id, seq, payload)
	}
}

// corrupt counts one inbound datagram rejected for its framing or FCS.
func (g *Gateway) corrupt() {
	g.corruptDgrams.Add(1)
	g.cCorrupt.Inc()
}

// reset answers a datagram that cannot be routed.
func (g *Gateway) reset(id uint64, reason string, addr *net.UDPAddr) {
	g.resetsSent.Add(1)
	g.cResets.Inc()
	g.send(id, 0, &Msg{Kind: KindReset, Reason: reason}, addr)
}

// route delivers one inbound data frame: to its live session's mailbox, to
// a fresh session for an acceptable HELLO/RESUME, or answered directly from
// a tombstone.
func (g *Gateway) route(h radio.Header, body []byte, addr *net.UDPAddr) {
	m, err := DecodeMessage(body)
	if err != nil {
		g.corrupt()
		return
	}
	m.Session = h.ID

	g.mu.Lock()
	if g.runCtx.Err() != nil {
		g.mu.Unlock()
		return
	}
	if s := g.sessions[m.Session]; s != nil {
		g.mu.Unlock()
		select {
		case s.mbox <- inEnv{msg: m, addr: addr}:
		default:
			// A full mailbox means the worker is saturated; dropping here
			// is the same loss the UDP link already imposes, and the
			// client's ARQ retransmits.
			g.droppedDgrams.Add(1)
			g.cDropped.Inc()
		}
		return
	}
	// No live session. Tombstones answer late traffic honestly.
	if done, ok := g.tombs[m.Session]; ok {
		g.mu.Unlock()
		if done && (m.Kind == KindFin || m.Kind == KindResume) {
			// The transfer completed; the peer just never saw the ack.
			g.send(m.Session, 0, &Msg{Kind: KindFinAck}, addr)
			return
		}
		g.reset(m.Session, "evicted", addr)
		return
	}
	switch m.Kind {
	case KindHello, KindResume:
		if len(g.sessions) >= g.cfg.MaxSessions {
			g.mu.Unlock()
			g.reset(m.Session, "busy", addr)
			return
		}
		s := g.newSessionLocked(m.Session)
		g.mu.Unlock()
		s.mbox <- inEnv{msg: m, addr: addr}
	case KindReset:
		// A reset for a session we do not hold needs no answer.
		g.mu.Unlock()
	default:
		g.mu.Unlock()
		g.reset(m.Session, "unknown-session", addr)
	}
}

// newSessionLocked registers a worker for id and starts its goroutine.
// Caller holds g.mu.
func (g *Gateway) newSessionLocked(id uint64) *gwSession {
	s := &gwSession{
		g:       g,
		id:      id,
		mbox:    make(chan inEnv, mailboxDepth),
		created: g.clk.Now(),
	}
	g.sessions[id] = s
	g.opened.Add(1)
	g.cOpened.Inc()
	g.active.Add(1)
	g.gActive.Set(float64(g.active.Load()))
	g.wg.Add(1)
	go s.run()
	return s
}

// finish tears a session's registration down and records its ending.
func (g *Gateway) finish(s *gwSession) {
	g.mu.Lock()
	delete(g.sessions, s.id)
	if g.runCtx.Err() == nil {
		// No tombstones during shutdown: everything is going away anyway.
		if len(g.tombOrder) >= maxTombstones {
			old := g.tombOrder[0]
			g.tombOrder = g.tombOrder[1:]
			delete(g.tombs, old)
		}
		g.tombs[s.id] = s.mach.Outcome() == OutcomeCompleted
		g.tombOrder = append(g.tombOrder, s.id)
	}
	g.mu.Unlock()
	g.active.Add(-1)
	g.gActive.Set(float64(g.active.Load()))
	life := g.clk.Since(s.created)
	if g.hSessionSeconds != nil {
		g.hSessionSeconds.Observe(life.Seconds())
		g.hSessionKilobytes.Observe(float64(s.cum) / 1024)
	}
	g.bytesStored.Add(int64(s.cum))
	if s.mach.Outcome() == OutcomeCompleted {
		g.completed.Add(1)
		g.cCompleted.Inc()
		g.hub.Publish(stream.Event{Type: stream.EventSessionCompleted,
			Session: s.id, Bytes: int64(s.cum)})
		if g.log != nil {
			g.log.Info("session completed", "session", s.id,
				"bytes", s.cum, "lifetime", life, "reconnects", s.resumes)
		}
		return
	}
	reason := s.mach.Reason()
	g.failed.Add(1)
	g.cFailed.Inc()
	g.reasonMu.Lock()
	g.failReasons[reason]++
	g.reasonMu.Unlock()
	g.hub.Publish(stream.Event{Type: stream.EventSessionFailed,
		Session: s.id, Bytes: int64(s.cum), Reason: reason})
	if g.log != nil {
		g.log.Warn("session failed", "session", s.id, "reason", reason,
			"state_bytes", s.cum, "of", s.total, "lifetime", life)
	}
	// The flight recorder treats any verdict outside the ok-set as a
	// failure, so this Record trips its OnFailure dump trigger.
	if g.rec.Enabled() {
		file, dumpReason, err := g.rec.Record(flight.Evidence{
			PacketID: s.id,
			Verdict:  "session-" + reason,
			Note:     fmt.Sprintf("bytes %d of %d, state %v", s.cum, s.total, s.mach.State()),
		})
		if err == nil && file != "" {
			g.hub.Publish(stream.Event{Type: stream.EventFlightDump,
				Session: s.id, Reason: dumpReason, File: file})
		}
	}
}

// gwSession is one live session worker: owner of the reassembly state, the
// peer address, and the state machine; fed exclusively through its mailbox.
type gwSession struct {
	g    *Gateway
	id   uint64
	mbox chan inEnv

	mach    Machine
	addr    *net.UDPAddr
	created time.Time

	total     uint64
	chunkSize uint64
	sink      io.Writer

	cum      uint64
	buffered map[uint64][]byte // chunk index → payload, within the window

	txSeq   uint64
	resumes int

	// gBytes is the per-session progress gauge, labelled by the bounded
	// 64-value lane (id mod 64) — the slot-label discipline the AP table
	// uses, so a churning session population cannot fork unbounded metric
	// families. Registered at open, nil-safe before.
	gBytes *obs.Gauge

	// Mirrors of worker-owned state for the control API (see SessionInfo).
	statState   atomic.Int32
	statCum     atomic.Uint64
	statTotal   atomic.Uint64
	statResumes atomic.Int32
}

// syncInfo mirrors worker-owned state into the atomics Sessions reads.
func (s *gwSession) syncInfo() {
	s.statState.Store(int32(s.mach.State()))
	s.statCum.Store(s.cum)
	s.statTotal.Store(s.total)
	s.statResumes.Store(int32(s.resumes))
	s.gBytes.Set(float64(s.cum))
}

// run is the worker loop: one mailbox message or one deadline at a time,
// every iteration re-arming the state's timer (so any inbound datagram
// resets the idle deadline). A panic anywhere in message handling fails
// exactly this session closed; neighbors never notice.
func (s *gwSession) run() {
	defer s.g.wg.Done()
	defer func() {
		if r := recover(); r != nil {
			s.mach.Step(EvReset, "panic")
			if s.g.log != nil {
				s.g.log.Error("session worker panicked", "session", s.id, "panic", fmt.Sprint(r))
			}
		}
		s.g.finish(s)
	}()
	ctx := s.g.runContext()
	for s.mach.State() != StateClosed {
		t := s.g.clk.NewTimer(s.deadline())
		select {
		case env := <-s.mbox:
			t.Stop()
			s.handle(env)
		case <-t.C:
			if s.mach.State() == StateDraining {
				s.mach.Step(EvDrained, "")
			} else {
				s.mach.Step(EvTimeout, s.timeoutReason())
			}
		case <-ctx.Done():
			t.Stop()
			s.mach.Step(EvShutdown, "shutdown")
		}
		s.syncInfo()
	}
}

// runContext returns the gateway's run-scoped context for worker shutdown.
// Workers only exist while Run is active, so the field is always set.
func (g *Gateway) runContext() context.Context {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.runCtx == nil {
		return context.Background()
	}
	return g.runCtx
}

func (s *gwSession) deadline() time.Duration {
	switch s.mach.State() {
	case StateHandshake:
		return handshakeTimeout
	case StateDraining:
		return drainLinger
	default:
		return s.g.cfg.IdleTimeout
	}
}

func (s *gwSession) timeoutReason() string {
	if s.mach.State() == StateHandshake {
		return "handshake-timeout"
	}
	return "idle-timeout"
}

func (s *gwSession) send(m *Msg) {
	s.txSeq++
	s.g.send(s.id, s.txSeq, m, s.addr)
}

func (s *gwSession) handle(env inEnv) {
	m := env.msg
	s.addr = env.addr
	switch m.Kind {
	case KindHello:
		s.open(m, KindHelloAck)
	case KindResume:
		if s.mach.State() != StateHandshake {
			// A live session re-attached from a new address: reconnect.
			s.resumes++
			s.g.reconnects.Add(1)
			s.g.cReconnects.Inc()
			s.g.hub.Publish(stream.Event{Type: stream.EventSessionResumed,
				Session: s.id, Bytes: int64(s.cum)})
			if s.g.log != nil {
				s.g.log.Info("session resumed", "session", s.id, "cum", s.cum, "peer", env.addr.String())
			}
		}
		s.open(m, KindResumeAck)
	case KindData:
		if s.mach.State() != StateTransfer {
			return
		}
		s.data(m)
	case KindFin:
		s.fin(m)
	case KindReset:
		s.mach.Step(EvReset, "peer-reset")
	default:
		// Ack-class kinds (HELLO-ACK, ACK, RESUME-ACK, FIN-ACK) are
		// client-bound; a gateway receiving one drops it silently.
	}
}

// open accepts a HELLO or (re-)RESUME: negotiate the chunk size once, then
// grant credit and — for resumes — report the contiguous high-water mark so
// the client rewinds exactly that far.
func (s *gwSession) open(m *Msg, ackKind Kind) {
	if s.chunkSize == 0 {
		cs := uint64(m.ChunkSize)
		if cs == 0 {
			cs = DefaultChunkBytes
		}
		if cs > MaxChunkBytes {
			cs = MaxChunkBytes
		}
		s.chunkSize = cs
		s.total = m.Total
		s.buffered = make(map[uint64][]byte, creditWindow)
		if s.g.cfg.NewSink != nil {
			s.sink = s.g.cfg.NewSink(s.id)
		}
		if reg := s.g.cfg.Registry; reg != nil {
			s.gBytes = reg.Gauge("mimonet_gw_session_cum_bytes",
				"per-session reassembled bytes, labelled by the bounded session lane (id mod 64)",
				obs.Label{Key: "lane", Value: fmt.Sprintf("%02d", s.id%64)})
		}
		s.g.hub.Publish(stream.Event{Type: stream.EventSessionOpened,
			Session: s.id, Bytes: int64(s.total)})
		if s.g.log != nil {
			s.g.log.Info("session opened", "session", s.id, "total", s.total,
				"chunk", s.chunkSize, "kind", m.Kind.String())
		}
	}
	s.send(&Msg{Kind: ackKind, ChunkSize: uint32(s.chunkSize), Credit: creditWindow, CumOffset: s.cum})
	s.mach.Step(EvAttach, "")
	if s.total == 0 {
		// Zero-length transfer: nothing to move; wait for the FIN.
		s.mach.Step(EvProgress, "")
	}
}

// data ingests one chunk, whose message FCS DecodeMessage has checked:
// deduplicated, windowed, then the contiguous prefix advances into the sink
// and one ACK reports the new cumulative offset, the reassembly bitmap, and
// the refreshed credit.
func (s *gwSession) data(m *Msg) {
	offset, payload := splitChunk(m.Chunk)
	end := offset + uint64(len(payload))
	switch {
	case end <= s.cum:
		// Duplicate of consumed data: re-ack so the sender releases it.
	case offset%s.chunkSize != 0 || end > s.total:
		// Misaligned or out-of-range: drop without acking.
		return
	default:
		idx := offset / s.chunkSize
		base := s.cum / s.chunkSize
		if idx >= base+creditWindow {
			// Beyond the granted window; the sender is ahead of its
			// credit. Drop it — acks for in-window traffic restate the
			// grant and the ARQ re-sends the chunk once it fits.
			s.g.windowDrops.Add(1)
			return
		}
		if _, dup := s.buffered[idx]; !dup {
			// The chunk aliases this datagram's private copy; keep it.
			s.buffered[idx] = payload
		}
		// Advance the contiguous prefix into the sink.
		for {
			b, ok := s.buffered[s.cum/s.chunkSize]
			if !ok {
				break
			}
			delete(s.buffered, s.cum/s.chunkSize)
			if s.sink != nil {
				if _, err := s.sink.Write(b); err != nil {
					s.mach.Step(EvReset, "sink-error")
					s.send(&Msg{Kind: KindReset, Reason: "sink-error"})
					return
				}
			}
			s.cum += uint64(len(b))
		}
	}
	s.mach.Step(EvProgress, "")
	s.ack()
}

// ack reports reassembly state: the cumulative offset releases everything
// below it; the bitmap (anchored at the chunk index just past cum, its
// low 12 bits in BlockAck.Start) releases out-of-order arrivals; the credit
// restates how many chunks past cum the sender may keep in flight.
func (s *gwSession) ack() {
	base := s.cum / s.chunkSize
	var bitmap uint64
	for idx := range s.buffered {
		if off := idx - base; off < 64 {
			bitmap |= 1 << off
		}
	}
	s.send(&Msg{
		Kind:      KindAck,
		Ack:       mac.BlockAck{Start: uint16(base & 0x0FFF), Bitmap: bitmap},
		CumOffset: s.cum,
		Credit:    creditWindow,
	})
}

// fin verifies the transfer end: complete and contiguous → FIN-ACK and
// drain; short → restate the reassembly ack so the sender finishes the job.
func (s *gwSession) fin(m *Msg) {
	if s.mach.State() == StateDraining {
		s.send(&Msg{Kind: KindFinAck})
		return
	}
	if s.chunkSize == 0 {
		// FIN before HELLO: nothing was ever negotiated.
		s.send(&Msg{Kind: KindReset, Reason: "fin-before-hello"})
		s.mach.Step(EvReset, "fin-before-hello")
		return
	}
	if s.cum == m.Total && s.cum == s.total && len(s.buffered) == 0 {
		s.send(&Msg{Kind: KindFinAck})
		s.mach.Step(EvFinish, "")
		return
	}
	s.ack()
}
