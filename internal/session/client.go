package session

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"net"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/mac"
	"repro/internal/radio"
)

// SessionError is the fail-closed terminal error of a client transfer,
// carrying the failure-taxonomy reason ("peer-reset", "reconnect-budget",
// "handshake-timeout", "shutdown", …).
type SessionError struct {
	ID     uint64
	Reason string
}

func (e *SessionError) Error() string {
	return fmt.Sprintf("session %d failed: %s", e.ID, e.Reason)
}

// ClientConfig tunes a Client. Addr is required; every zero field picks a
// default sized for a local chaos-soaked link.
type ClientConfig struct {
	// Addr is the gateway's UDP address.
	Addr string
	// SessionID identifies the transfer; zero draws a random non-zero ID
	// from Rand.
	SessionID uint64

	// Clock is the injectable time source. Rand seeds the jitter and the
	// session ID; nil falls back to a fixed-seed source (fine for a single
	// client, wrong for a fleet — the soak derives per-session seeds).
	Clock clock.Clock
	Rand  *rand.Rand
	// Logger receives reconnect and failure events. Nil is silent.
	Logger *slog.Logger

	// AckTimeout bounds one transfer round's wait for acknowledgements.
	// Default 30ms.
	AckTimeout time.Duration
	// HandshakeTimeout bounds one HELLO/RESUME/FIN exchange attempt;
	// HandshakeRetries bounds the attempts. Defaults 150ms and 8.
	HandshakeTimeout time.Duration
	HandshakeRetries int
	// ReconnectBase/ReconnectMax shape the capped exponential
	// backoff-plus-jitter between reconnect attempts; MaxReconnects is the
	// retry budget after which the transfer fails closed. Defaults 10ms,
	// 250ms, 6.
	ReconnectBase time.Duration
	ReconnectMax  time.Duration
	MaxReconnects int

	// Intercept, when set, sees every outbound datagram — the
	// faults.Injector.MangleDatagram seam on the client's transmit side.
	Intercept func(datagram []byte) [][]byte
}

// Client ARQ constants.
const (
	// arqWindow bounds ARQ outstanding chunks (≤ 64); the effective limit
	// each round is min(arqWindow, gateway credit).
	arqWindow = 32
	// arqMaxRetries is the per-chunk ARQ transmission budget before the
	// frame drops, which triggers reconnect-with-resume.
	arqMaxRetries = 8
	// arqBackoffBase, arqBackoffMax and arqJitterFrac shape the ARQ retry
	// backoff.
	arqBackoffBase = 2 * time.Millisecond
	arqBackoffMax  = 50 * time.Millisecond
	arqJitterFrac  = 0.3
	// maxDeadRounds triggers reconnect after this many consecutive rounds
	// with zero acknowledged progress.
	maxDeadRounds = 6
)

func (c ClientConfig) withDefaults() ClientConfig {
	c.Clock = clock.Or(c.Clock)
	if c.Rand == nil {
		c.Rand = rand.New(rand.NewSource(1)) //mimonet:globalrand-ok seeded fallback, not the global source
	}
	if c.AckTimeout <= 0 {
		c.AckTimeout = 30 * time.Millisecond
	}
	if c.HandshakeTimeout <= 0 {
		c.HandshakeTimeout = 150 * time.Millisecond
	}
	if c.HandshakeRetries <= 0 {
		c.HandshakeRetries = 8
	}
	if c.ReconnectBase <= 0 {
		c.ReconnectBase = 10 * time.Millisecond
	}
	if c.ReconnectMax <= 0 {
		c.ReconnectMax = 250 * time.Millisecond
	}
	if c.MaxReconnects <= 0 {
		c.MaxReconnects = 6
	}
	if c.SessionID == 0 {
		for c.SessionID == 0 {
			c.SessionID = c.Rand.Uint64()
		}
	}
	return c
}

// Client drives one reliable transfer to a Gateway: handshake, credit- and
// ARQ-windowed chunk rounds, reconnect-with-resume when the link dies under
// it, and a verified FIN. Send is single-threaded; Kill is the one method
// safe to call concurrently (the chaos harness's peer-kill lever).
type Client struct {
	cfg ClientConfig
	clk clock.Clock
	rng *rand.Rand
	log *slog.Logger

	connMu sync.Mutex
	conn   *net.UDPConn

	txSeq uint64
	rdBuf []byte

	// Reconnects and Recoveries record the resume path's work: attempts
	// that re-attached, and outage-to-resume durations for each.
	Reconnects int
	Recoveries []time.Duration
}

// NewClient validates the config. The socket is dialed by Send.
func NewClient(cfg ClientConfig) (*Client, error) {
	if cfg.Addr == "" {
		return nil, errors.New("session: client needs a gateway address")
	}
	cfg = cfg.withDefaults()
	return &Client{cfg: cfg, clk: cfg.Clock, rng: cfg.Rand, log: cfg.Logger,
		rdBuf: make([]byte, 64*1024)}, nil
}

// SessionID returns the transfer's identity.
func (c *Client) SessionID() uint64 { return c.cfg.SessionID }

// Kill closes the client's current socket, simulating an abrupt peer death
// mid-transfer. The next I/O fails and Send enters its reconnect path. Safe
// to call concurrently with Send, any number of times.
func (c *Client) Kill() {
	c.connMu.Lock()
	defer c.connMu.Unlock()
	if c.conn != nil {
		c.conn.Close()
	}
}

func (c *Client) dial() error {
	ua, err := net.ResolveUDPAddr("udp", c.cfg.Addr)
	if err != nil {
		return fmt.Errorf("session: resolve %q: %w", c.cfg.Addr, err)
	}
	conn, err := net.DialUDP("udp", nil, ua)
	if err != nil {
		return fmt.Errorf("session: dial %q: %w", c.cfg.Addr, err)
	}
	c.connMu.Lock()
	if c.conn != nil {
		c.conn.Close()
	}
	c.conn = conn
	c.connMu.Unlock()
	return nil
}

func (c *Client) closeConn() {
	c.connMu.Lock()
	defer c.connMu.Unlock()
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
}

func (c *Client) currentConn() *net.UDPConn {
	c.connMu.Lock()
	defer c.connMu.Unlock()
	return c.conn
}

// sendMsg frames m as a radio data frame and transmits it through the
// fault-injection intercept.
func (c *Client) sendMsg(m *Msg) error {
	conn := c.currentConn()
	if conn == nil {
		return errors.New("session: connection closed")
	}
	payload, err := AppendMessage(nil, m)
	if err != nil {
		return err
	}
	c.txSeq++
	frame, err := radio.EncodeDataFrame(nil, radio.Header{Seq: c.txSeq, ID: c.cfg.SessionID}, payload)
	if err != nil {
		return err
	}
	if c.cfg.Intercept != nil {
		for _, d := range c.cfg.Intercept(frame) {
			if _, err := conn.Write(d); err != nil {
				return err
			}
		}
		return nil
	}
	_, err = conn.Write(frame)
	return err
}

// readMsg blocks until one well-formed message for this session arrives or
// the deadline passes. Foreign, corrupt, or truncated datagrams are skipped.
func (c *Client) readMsg(deadline time.Time) (*Msg, error) {
	conn := c.currentConn()
	if conn == nil {
		return nil, errors.New("session: connection closed")
	}
	buf := c.rdBuf
	for {
		if err := conn.SetReadDeadline(deadline); err != nil {
			return nil, err
		}
		n, err := conn.Read(buf)
		if err != nil {
			return nil, err
		}
		h, err := radio.DecodeHeader(buf[:n])
		if err != nil || !h.IsData() || h.ID != c.cfg.SessionID {
			continue
		}
		body, err := radio.DecodeDataPayload(h, buf[h.HeaderLen():n])
		if err != nil {
			continue
		}
		m, err := DecodeMessage(body)
		if err != nil {
			continue
		}
		m.Session = h.ID
		return m, nil
	}
}

// fail wraps a terminal reason as the typed fail-closed error.
func (c *Client) fail(reason string) error {
	if c.log != nil {
		c.log.Warn("transfer failed", "session", c.cfg.SessionID, "reason", reason)
	}
	return &SessionError{ID: c.cfg.SessionID, Reason: reason}
}

// backoffWait sleeps a capped exponential backoff with ±50% jitter for the
// given 1-based attempt, honoring ctx.
func (c *Client) backoffWait(ctx context.Context, attempt int, base, max time.Duration) error {
	d := base
	for i := 1; i < attempt; i++ {
		if d >= max/2 {
			d = max
			break
		}
		d *= 2
	}
	if d > max {
		d = max
	}
	d += time.Duration((c.rng.Float64() - 0.5) * float64(d))
	if d < time.Millisecond {
		d = time.Millisecond
	}
	t := c.clk.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// xfer is the mutable per-attempt transfer state rebuilt on every
// (re)connect: a fresh ARQ epoch over the not-yet-delivered suffix.
type xfer struct {
	arq     *mac.ARQSender
	seqIdx  map[uint16]uint64 // ARQ seq → chunk index
	idxSeq  map[uint64]uint16
	nextIdx uint64
	credit  int
}

// Send delivers data reliably and returns nil only when the gateway
// confirmed the complete, contiguous transfer (FIN-ACK). Any terminal
// failure — reset from the peer, exhausted reconnect or handshake budget,
// cancelled context — is a *SessionError and the session is dead.
func (c *Client) Send(ctx context.Context, data []byte) error {
	if err := c.dial(); err != nil {
		return c.fail("dial: " + err.Error())
	}
	defer c.closeConn()

	total := uint64(len(data))
	hello := &Msg{Kind: KindHello, Total: total, ChunkSize: DefaultChunkBytes}
	ack, err := c.exchange(ctx, hello, KindHelloAck)
	if err != nil {
		return err
	}
	chunk := uint64(ack.ChunkSize)
	if chunk == 0 || chunk > uint64(MaxChunkBytes) {
		return c.fail("bad-chunk-grant")
	}
	numChunks := (total + chunk - 1) / chunk
	cum := uint64(0)

	x, err := c.newXfer(cum, chunk, int(ack.Credit))
	if err != nil {
		return c.fail(err.Error())
	}

	deadRounds := 0
	finCycles := 0
transfer:
	for cum < total || x.arq.Outstanding() > 0 {
		if ctx.Err() != nil {
			return c.fail("shutdown")
		}
		// Fill the window up to both the ARQ bound and the peer's credit.
		limit := x.credit
		if limit > arqWindow {
			limit = arqWindow
		}
		for x.arq.Outstanding() < limit && x.nextIdx < numChunks {
			off := x.nextIdx * chunk
			end := off + chunk
			if end > total {
				end = total
			}
			seq := x.arq.Queue(chunkPayload(off, data[off:end]))
			x.seqIdx[seq] = x.nextIdx
			x.idxSeq[x.nextIdx] = seq
			x.nextIdx++
		}
		// Transmit this round's frames (first attempts and retries alike).
		frames := x.arq.Round()
		if x.arq.Dropped > 0 {
			// A chunk exhausted its retry budget: this link attempt is
			// dead. Reconnect and resume from the gateway's high water.
			cum, x, err = c.reconnect(ctx, total, chunk, "retry-budget")
			if err != nil {
				return err
			}
			deadRounds = 0
			continue
		}
		sendErr := false
		for _, f := range frames {
			if err := c.sendMsg(&Msg{Kind: KindData, Chunk: f.Payload}); err != nil {
				sendErr = true
				break
			}
		}
		// Collect acknowledgements until the round deadline.
		released := false
		finished := false
		peerLost := false
		deadline := c.clk.Now().Add(c.cfg.AckTimeout)
		for !sendErr && !peerLost {
			m, err := c.readMsg(deadline)
			if err != nil {
				if isTimeout(err) {
					break
				}
				sendErr = true
				break
			}
			switch m.Kind {
			case KindAck:
				x.credit = int(m.Credit)
				if c.applyAck(x, m, chunk, total) {
					released = true
				}
				if m.CumOffset > cum {
					cum = m.CumOffset
				}
			case KindReset:
				if m.Reason == "unknown-session" {
					// The peer restarted and lost our session: resume
					// re-creates it (from its surviving high-water mark,
					// or offset zero after total state loss).
					peerLost = true
					continue
				}
				return c.fail(reasonOrDefault(m.Reason, "peer-reset"))
			default:
				// Only ACK and RESET are meaningful mid-transfer; anything
				// else (stray handshake traffic, future kinds) is ignored.
			}
			if x.arq.Outstanding() == 0 {
				// Window drained: either done or ready to queue more.
				finished = cum >= total && x.nextIdx >= numChunks
				break
			}
		}
		if sendErr || peerLost {
			cause := "io-error"
			if peerLost {
				cause = "peer-lost-state"
			}
			cum, x, err = c.reconnect(ctx, total, chunk, cause)
			if err != nil {
				return err
			}
			deadRounds = 0
			continue
		}
		if finished {
			break
		}
		if released {
			deadRounds = 0
			continue
		}
		// Zero-progress round: feed the ARQ backoff and, past the dead
		// threshold, give up on this link attempt entirely.
		deadRounds++
		if x.arq.Outstanding() > 0 {
			x.arq.Apply(mac.BlockAck{})
		}
		if deadRounds >= maxDeadRounds {
			cum, x, err = c.reconnect(ctx, total, chunk, "dead-link")
			if err != nil {
				return err
			}
			deadRounds = 0
			continue
		}
		if d := x.arq.RetryDelay(); d > 0 {
			t := c.clk.NewTimer(d)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return c.fail("shutdown")
			}
		}
	}

	// FIN: the gateway confirms it holds all bytes contiguously. A peer
	// that restarted between the last ack and the FIN answers
	// "unknown-session"; resume and, if its high-water mark regressed,
	// re-enter the transfer loop.
	fin := &Msg{Kind: KindFin, Total: total}
	if _, err := c.exchange(ctx, fin, KindFinAck); err != nil {
		var se *SessionError
		if errors.As(err, &se) && se.Reason == "unknown-session" && finCycles < 3 {
			finCycles++
			cum, x, err = c.reconnect(ctx, total, chunk, "peer-lost-state")
			if err != nil {
				return err
			}
			deadRounds = 0
			goto transfer
		}
		return err
	}
	if c.log != nil {
		c.log.Info("transfer completed", "session", c.cfg.SessionID,
			"bytes", total, "reconnects", c.Reconnects)
	}
	return nil
}

// newXfer builds a fresh ARQ epoch starting at the given cumulative offset.
func (c *Client) newXfer(cum, chunk uint64, credit int) (*xfer, error) {
	arq, err := mac.NewARQSender(arqWindow)
	if err != nil {
		return nil, err
	}
	arq.MaxRetries = arqMaxRetries
	arq.BackoffBase = arqBackoffBase
	arq.BackoffMax = arqBackoffMax
	arq.JitterFrac = arqJitterFrac
	arq.SetJitterSource(c.rng)
	if credit <= 0 {
		credit = 1
	}
	return &xfer{
		arq:     arq,
		seqIdx:  make(map[uint16]uint64),
		idxSeq:  make(map[uint64]uint16),
		nextIdx: cum / chunk,
		credit:  credit,
	}, nil
}

// applyAck translates the gateway's reassembly report into this epoch's ARQ
// sequence space and applies it as one synthetic Block Ack. Returns whether
// anything was released.
func (c *Client) applyAck(x *xfer, m *Msg, chunk, total uint64) bool {
	cumIdx := m.CumOffset / chunk
	var releasedSeqs []uint16
	for seq, idx := range x.seqIdx {
		end := (idx + 1) * chunk
		if end > total {
			end = total
		}
		covered := end <= m.CumOffset
		if !covered {
			// The bitmap is anchored at the chunk index just past cum.
			if off := idx - cumIdx; idx >= cumIdx && off < 64 && m.Ack.Bitmap&(1<<off) != 0 {
				covered = true
			}
		}
		if covered {
			releasedSeqs = append(releasedSeqs, seq)
			delete(x.seqIdx, seq)
			delete(x.idxSeq, idx)
		}
	}
	if len(releasedSeqs) == 0 {
		return false
	}
	// Anchor the synthetic ack at the oldest released sequence; the window
	// is ≤ 64 so every released sequence fits the bitmap.
	start := releasedSeqs[0]
	for _, s := range releasedSeqs[1:] {
		if int16((s-start)<<4)>>4 < 0 { // circular 12-bit compare
			start = s
		}
	}
	ba := mac.BlockAck{Start: start}
	for _, s := range releasedSeqs {
		if off := int(s-start) & 0x0FFF; off < 64 {
			ba.Bitmap |= 1 << uint(off)
		}
	}
	x.arq.Apply(ba)
	return true
}

// exchange sends req and waits for an ack of the wanted kind, retrying with
// backoff up to the handshake budget. RESUME, HELLO, and FIN all use it.
func (c *Client) exchange(ctx context.Context, req *Msg, want Kind) (*Msg, error) {
	for attempt := 1; attempt <= c.cfg.HandshakeRetries; attempt++ {
		if ctx.Err() != nil {
			return nil, c.fail("shutdown")
		}
		if err := c.sendMsg(req); err != nil {
			// The socket died under us; for HELLO/FIN the caller-level
			// reconnect cannot help — redial here.
			if derr := c.dial(); derr != nil {
				return nil, c.fail("dial: " + derr.Error())
			}
			continue
		}
		deadline := c.clk.Now().Add(c.cfg.HandshakeTimeout)
		for {
			m, err := c.readMsg(deadline)
			if err != nil {
				if isTimeout(err) {
					break
				}
				if derr := c.dial(); derr != nil {
					return nil, c.fail("dial: " + derr.Error())
				}
				break
			}
			if m.Kind == want {
				return m, nil
			}
			if m.Kind == KindReset {
				return nil, c.fail(reasonOrDefault(m.Reason, "peer-reset"))
			}
			// Stale ack from a prior round: keep reading.
		}
		if err := c.backoffWait(ctx, attempt, c.cfg.ReconnectBase, c.cfg.ReconnectMax); err != nil {
			return nil, c.fail("shutdown")
		}
	}
	return nil, c.fail(req.Kind.String() + "-timeout")
}

// reconnect runs the resume path: close the dead socket, back off with
// jitter, re-dial, RESUME, and rebuild the transfer epoch at the gateway's
// contiguous high-water mark. Budget exhaustion or an explicit RESET fails
// the session closed.
func (c *Client) reconnect(ctx context.Context, total, chunk uint64, cause string) (uint64, *xfer, error) {
	outage := c.clk.Now()
	if c.log != nil {
		c.log.Info("reconnecting", "session", c.cfg.SessionID, "cause", cause)
	}
	for attempt := 1; attempt <= c.cfg.MaxReconnects; attempt++ {
		if err := c.backoffWait(ctx, attempt, c.cfg.ReconnectBase, c.cfg.ReconnectMax); err != nil {
			return 0, nil, c.fail("shutdown")
		}
		if err := c.dial(); err != nil {
			continue
		}
		resume := &Msg{Kind: KindResume, Total: total, ChunkSize: uint32(chunk)}
		if err := c.sendMsg(resume); err != nil {
			continue
		}
		deadline := c.clk.Now().Add(c.cfg.HandshakeTimeout)
		m, err := c.readMsg(deadline)
		if err != nil {
			continue
		}
		switch m.Kind {
		case KindResumeAck:
			cum := m.CumOffset
			x, err := c.newXfer(cum, chunk, int(m.Credit))
			if err != nil {
				return 0, nil, c.fail(err.Error())
			}
			c.Reconnects++
			c.Recoveries = append(c.Recoveries, c.clk.Since(outage))
			if c.log != nil {
				c.log.Info("resumed", "session", c.cfg.SessionID, "cum", cum,
					"attempt", attempt, "outage", c.clk.Since(outage))
			}
			return cum, x, nil
		case KindReset:
			return 0, nil, c.fail(reasonOrDefault(m.Reason, "peer-reset"))
		default:
			// Stale ACKs and data-phase traffic race the resume handshake;
			// keep waiting for the RESUME-ACK (or the deadline).
		}
	}
	return 0, nil, c.fail("reconnect-budget")
}

func reasonOrDefault(reason, def string) string {
	if reason != "" {
		return reason
	}
	return def
}

func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}
