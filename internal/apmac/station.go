package apmac

import (
	"context"
	"fmt"
	"log/slog"
	"math/rand"
	"net"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/cmatrix"
	"repro/internal/mac"
	"repro/internal/montecarlo"
	"repro/internal/radio"
	"repro/internal/sounding"
)

// Client is the station side of the AP MAC: it associates through the
// contention protocol (seeded binary-exponential backoff on every failed
// attempt), answers sounding requests with quantized CSI of its seeded
// channel, receives precoded downlink MPDUs, and block-acknowledges them so
// the AP's per-station ARQ advances. Lifecycle and reconnect structure
// mirror the session gateway's client.
type Client struct {
	cfg  ClientConfig
	log  *slog.Logger
	clk  clock.Clock
	conn *net.UDPConn
	rng  *rand.Rand
	h    *cmatrix.Matrix

	id    uint16
	seq   uint64
	nonce uint64
	rdBuf []byte

	// Received-window state for block acks.
	haveMax  uint16
	haveAny  bool
	haveBits uint64

	statsMu sync.Mutex
	stats   ClientStats
}

// Snapshot returns the station's current run statistics; safe to call while
// Run is live on another goroutine.
func (s *Client) Snapshot() ClientStats {
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	return s.stats
}

// bump mutates the stats under the snapshot lock.
func (s *Client) bump(f func(*ClientStats)) {
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	f(&s.stats)
}

// ClientStats summarizes one station run.
type ClientStats struct {
	Associated   bool
	ID           uint16
	Slot         uint8
	AssocTries   int
	Soundings    int
	DataFrames   int
	AcksSent     int
	PayloadFault int // MPDUs whose filler did not match the station ID stamp
}

// ClientConfig configures a station client.
type ClientConfig struct {
	// Addr is the AP's UDP address.
	Addr string
	// Index seeds the station's identity: its nonce, channel draw, and
	// backoff stream all derive from (Seed, Index) via montecarlo.ShardSeed.
	Index int
	// Seed is the campaign seed.
	Seed int64
	// NTX is the AP antenna count the channel draw spans. Default 4.
	NTX int
	// Logger observes station events; nil is silent.
	Logger *slog.Logger
	// Clock injects time; nil is the system clock.
	//mimonet:testonly-ok clock seam for a fake clock; no caller, test or production, injects one yet
	Clock clock.Clock
}

// assocTimeout bounds one association attempt.
const assocTimeout = 250 * time.Millisecond

func (c ClientConfig) withDefaults() ClientConfig {
	if c.NTX <= 0 {
		c.NTX = 4
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.DiscardHandler)
	}
	c.Clock = clock.Or(c.Clock)
	return c
}

// NewClient dials the AP and prepares the client.
func NewClient(cfg ClientConfig) (*Client, error) {
	cfg = cfg.withDefaults()
	raddr, err := net.ResolveUDPAddr("udp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("apmac: station address: %w", err)
	}
	conn, err := net.DialUDP("udp", nil, raddr)
	if err != nil {
		return nil, fmt.Errorf("apmac: station dial: %w", err)
	}
	rng := rand.New(rand.NewSource(montecarlo.ShardSeed(cfg.Seed, cfg.Index)))
	s := &Client{
		cfg:   cfg,
		log:   cfg.Logger,
		clk:   cfg.Clock,
		conn:  conn,
		rng:   rng,
		nonce: uint64(rng.Int63()) | 1, // non-zero: pre-association demux key
		rdBuf: make([]byte, 64*1024),
	}
	s.h = drawChannel(rng, stationNRX(cfg.Index), cfg.NTX)
	return s, nil
}

// Run associates and serves the control loop until ctx is cancelled (a Bye
// is sent on the way out) or the AP evicts the station.
func (s *Client) Run(ctx context.Context) error {
	defer s.conn.Close()
	if err := s.associate(ctx); err != nil {
		return err
	}
	s.log.Info("associated", slog.Int("station", int(s.id)),
		slog.Int("tries", s.Snapshot().AssocTries))
	for {
		if ctx.Err() != nil {
			s.sendMsg(uint64(s.id), &Msg{Kind: KindBye, Reason: "shutdown"})
			return nil
		}
		m, err := s.readMsg(s.clk.Now().Add(200 * time.Millisecond))
		if err != nil {
			continue // timeout: keep serving
		}
		switch m.Kind {
		case KindSound:
			s.bump(func(st *ClientStats) { st.Soundings++ })
			fb, err := s.quantizeCSI()
			if err != nil {
				return err
			}
			s.sendMsg(uint64(s.id), &Msg{Kind: KindFeedback, Token: m.Token, Feedback: fb})
		case KindData:
			f, err := mac.Decode(m.MPDU)
			if err != nil {
				continue
			}
			s.bump(func(st *ClientStats) {
				st.DataFrames++
				if len(f.Payload) > 0 && f.Payload[0] != byte(s.id) {
					st.PayloadFault++
				}
			})
			s.recordSeq(f.Seq)
			s.sendAck()
		case KindBye:
			s.log.Info("evicted", slog.String("reason", m.Reason))
			return nil
		case KindAssoc, KindAssocAck, KindFeedback, KindBlockAck:
			// Not meaningful mid-session; ignore.
		}
	}
}

// associate runs the contention loop: transmit, await the ack for one
// timeout, and on failure back off a seeded number of attempt slots with a
// doubled window — the station-side half of the slotted contention MAC.
func (s *Client) associate(ctx context.Context) error {
	bo, err := NewBackoff(s.rng, DefaultCWMinExp, DefaultCWMaxExp)
	if err != nil {
		return err
	}
	for attempt := 0; ; attempt++ {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		s.bump(func(st *ClientStats) { st.AssocTries++ })
		s.sendMsg(s.nonce, &Msg{
			Kind: KindAssoc, Nonce: s.nonce, RXAntennas: uint8(stationNRX(s.cfg.Index)),
		})
		deadline := s.clk.Now().Add(assocTimeout)
		for {
			m, err := s.readMsg(deadline)
			if err != nil {
				break
			}
			if m.Kind == KindAssocAck {
				s.id = m.AssignedID
				s.bump(func(st *ClientStats) {
					st.Associated = true
					st.ID = m.AssignedID
					st.Slot = m.Slot
				})
				return nil
			}
		}
		if attempt >= 8 {
			return fmt.Errorf("apmac: association failed after %d attempts", s.Snapshot().AssocTries)
		}
		bo.Collision()
		wait := time.Duration(bo.Draw()+1) * assocTimeout / 4
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-s.clk.After(wait):
		}
	}
}

// quantizeCSI encodes the station's current channel as compact feedback.
func (s *Client) quantizeCSI() ([]byte, error) {
	tones := make([]*cmatrix.Matrix, soakTones)
	for i := range tones {
		tones[i] = s.h
	}
	return sounding.Quantize(tones, 1)
}

// recordSeq slides the 64-deep receive window over MPDU sequence numbers.
func (s *Client) recordSeq(seq uint16) {
	seq &= 0x0FFF
	if !s.haveAny {
		s.haveAny = true
		s.haveMax = seq
		s.haveBits = 1 << 63
		return
	}
	ahead := int(seq-s.haveMax) & 0x0FFF
	if ahead > 0 && ahead < 2048 {
		if ahead >= 64 {
			s.haveBits = 0
		} else {
			s.haveBits >>= uint(ahead)
		}
		s.haveMax = seq
		s.haveBits |= 1 << 63
		return
	}
	if back := int(s.haveMax-seq) & 0x0FFF; back < 64 {
		s.haveBits |= 1 << uint(63-back)
	}
}

// sendAck reports the receive window as a block ack anchored 63 sequences
// behind the newest MPDU.
func (s *Client) sendAck() {
	if !s.haveAny {
		return
	}
	// haveBits bit (63-back) covers sequence haveMax-back; anchored at
	// start = haveMax-63 that same sequence sits at ack offset 63-back, so
	// the bitmap transfers directly.
	start := (s.haveMax - 63) & 0x0FFF
	bitmap := s.haveBits
	s.bump(func(st *ClientStats) { st.AcksSent++ })
	s.sendMsg(uint64(s.id), &Msg{
		Kind: KindBlockAck, Ack: mac.BlockAck{Start: start, Bitmap: bitmap},
	})
}

// sendMsg encodes one control message into a radio data frame keyed by id:
// the station ID once associated, the nonce before.
func (s *Client) sendMsg(id uint64, m *Msg) {
	payload, err := AppendMessage(nil, m)
	if err != nil {
		return
	}
	s.seq++
	frame, err := radio.EncodeDataFrame(nil, radio.Header{Seq: s.seq, ID: id}, payload)
	if err != nil {
		return
	}
	s.conn.Write(frame) //nolint:errcheck // lossy link: errors equal loss
}

// readMsg blocks until one well-formed AP message arrives or the absolute
// deadline passes. Undecodable datagrams are skipped. The message aliases
// the client's read buffer, valid until the next call.
func (s *Client) readMsg(deadline time.Time) (*Msg, error) {
	if err := s.conn.SetReadDeadline(deadline); err != nil {
		return nil, err
	}
	for {
		n, err := s.conn.Read(s.rdBuf)
		if err != nil {
			return nil, err
		}
		h, err := radio.DecodeHeader(s.rdBuf[:n])
		if err != nil {
			continue
		}
		body, err := radio.DecodeDataPayload(h, s.rdBuf[h.HeaderLen():n])
		if err != nil {
			continue
		}
		if m, err := DecodeMessage(body); err == nil {
			return m, nil
		}
	}
}
