package apmac

import (
	"context"
	"fmt"
	"log/slog"
	"math"
	"math/rand"
	"net"
	"time"

	"repro/internal/clock"
	"repro/internal/mumimo"
	"repro/internal/obs"
	"repro/internal/obs/stream"
	"repro/internal/radio"
)

// AP is the multi-user access point service: it multiplexes many station
// processes over radio data frames keyed by station ID, owning the
// association table, the CSI cache fed by quantized sounding feedback, and
// the orthogonality-aware group scheduler that drives the precoded
// downlink. It runs on the same supervised radio.DatagramService as the
// session gateway: route and tick share the handler block's goroutine, so
// the table, cache and ARQ state need no further locking.
type AP struct {
	cfg   APConfig
	log   *slog.Logger
	svc   *radio.DatagramService
	table *Table
	cache *mumimo.Cache
	sched *mumimo.Scheduler
	hub   *stream.Hub

	addrs map[uint16]*net.UDPAddr
	links map[uint16]*linkStats
	seq   uint64
	token uint32
	ticks int

	// dropRng is the seeded air-interface loss model: each downlink data
	// frame is lost with cfg.DropProb, exercising the per-station ARQ.
	dropRng *rand.Rand
}

// linkStats tracks one station's downlink outcome for the PER gauge and
// its scheduling deficit for fairness.
type linkStats struct {
	attempts  int
	delivered int
	// lastServed is the tick this station last made a group. The saturated
	// downlink keeps every ARQ window full, so raw queue depth ties across
	// the field; the deficit (ticks since served) breaks the tie and turns
	// the greedy scheduler into a deficit round-robin.
	lastServed int
}

// APConfig configures an access point.
type APConfig struct {
	// Listen is the UDP address stations join.
	Listen string
	// NTX is the transmit antenna count (spatial stream budget). Default 4.
	NTX int
	// SNRdB is the nominal link SNR handed to the sounding analyzer.
	// Default 25.
	SNRdB float64
	// MPDUBytes sizes each downlink payload. Default 500.
	MPDUBytes int
	// TickInterval paces the scheduling loop. Default 5ms.
	TickInterval time.Duration
	// SoundEvery is the sounding cadence in ticks. Default 20.
	SoundEvery int
	// IdleTimeout evicts stations silent this long. Default 3s.
	IdleTimeout time.Duration
	// DropProb is the seeded downlink loss probability (air model).
	DropProb float64
	// Seed drives the loss model.
	Seed int64
	// Logger observes AP events; nil is silent.
	Logger *slog.Logger
	// Registry receives the AP gauges and flowgraph health metrics.
	Registry *obs.Registry
	// Events, when set, receives the AP journal — station assoc / drop,
	// CSI staleness evictions, and supervisor restarts — on the live
	// telemetry stream. Nil publishes nothing (the hub is nil-safe).
	Events *stream.Hub
	// Clock injects time; nil is the system clock.
	//mimonet:testonly-ok clock seam for a fake clock; no caller, test or production, injects one yet
	Clock clock.Clock
}

func (c APConfig) withDefaults() APConfig {
	if c.NTX <= 0 {
		c.NTX = 4
	}
	if c.SNRdB == 0 {
		c.SNRdB = 25
	}
	if c.MPDUBytes <= 0 {
		c.MPDUBytes = 500
	}
	if c.MPDUBytes > MaxFeedbackBytes {
		c.MPDUBytes = MaxFeedbackBytes
	}
	if c.TickInterval <= 0 {
		c.TickInterval = 5 * time.Millisecond
	}
	if c.SoundEvery <= 0 {
		c.SoundEvery = 20
	}
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = 3 * time.Second
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

// NewAP binds the listen socket and assembles the service.
func NewAP(cfg APConfig) (*AP, error) {
	cfg = cfg.withDefaults()
	a := &AP{
		cfg:     cfg,
		log:     cfg.Logger,
		table:   NewTable(cfg.Clock),
		cache:   mumimo.NewCache(cfg.Clock, mumimo.DefaultMaxCSIAge),
		sched:   &mumimo.Scheduler{NTX: cfg.NTX},
		hub:     cfg.Events,
		addrs:   map[uint16]*net.UDPAddr{},
		links:   map[uint16]*linkStats{},
		dropRng: rand.New(rand.NewSource(cfg.Seed)),
	}
	svc, err := radio.NewDatagramService(radio.ServiceConfig{
		Listen: cfg.Listen, Ingress: "ap-ingress", Handler: "ap-sched",
		Handle: a.route, Tick: cfg.TickInterval, OnTick: a.tick,
		Clock: cfg.Clock, Logger: cfg.Logger, Registry: cfg.Registry,
		OnRestart: cfg.Events.PublishRestart,
	})
	if err != nil {
		return nil, fmt.Errorf("apmac: %w", err)
	}
	a.svc = svc
	if cfg.Registry != nil {
		a.table.Instrument(cfg.Registry)
	}
	return a, nil
}

// Addr returns the bound listen address.
func (a *AP) Addr() net.Addr { return a.svc.Addr() }

// Stations returns the current association count.
func (a *AP) Stations() int { return a.table.Len() }

// StationList snapshots every association for the control API.
func (a *AP) StationList() []StationInfo { return a.table.Infos() }

// Run serves until ctx is cancelled. A contained panic restarts its block
// with backoff rather than killing the AP; a block that exhausts its
// restart budget ends Run with its BlockError.
func (a *AP) Run(ctx context.Context) error { return a.svc.Run(ctx) }

// route handles one inbound station data frame: an apmac control message
// keyed by station ID, or by the station's nonce on an association request.
func (a *AP) route(h radio.Header, body []byte, from *net.UDPAddr) {
	m, err := DecodeMessage(body)
	if err != nil {
		return
	}
	if m.Kind != KindAssoc && h.ID > math.MaxUint16 {
		// The ID arrives from outside: only a nonce may be wider than a
		// station ID.
		return
	}
	id := uint16(h.ID)
	switch m.Kind {
	case KindAssoc:
		s, err := a.table.Associate(m.Nonce, int(m.RXAntennas))
		if err != nil {
			a.log.Warn("association refused", slog.String("err", err.Error()))
			return
		}
		a.addrs[s.ID] = from
		if _, ok := a.links[s.ID]; !ok {
			a.links[s.ID] = &linkStats{}
		}
		a.send(from, s.ID, &Msg{
			Kind: KindAssocAck, AssignedID: s.ID, Slot: s.Slot,
			CWMinExp: DefaultCWMinExp, CWMaxExp: DefaultCWMaxExp,
		})
		a.hub.Publish(stream.Event{Type: stream.EventStationAssoc,
			Station: s.ID, Slot: s.Slot})
		a.log.Info("station associated", slog.Int("station", int(s.ID)),
			slog.Int("slot", int(s.Slot)), slog.Int("rx_antennas", int(s.RXAntennas)))
	case KindFeedback:
		a.table.Touch(id)
		a.addrs[id] = from
		snr := dbToLinear(a.cfg.SNRdB)
		if _, err := a.cache.UpdateFeedback(id, m.Feedback, snr); err != nil {
			a.log.Warn("feedback rejected", slog.Int("station", int(id)),
				slog.String("err", err.Error()))
		}
	case KindBlockAck:
		st, ok := a.table.Get(id)
		if !ok {
			return
		}
		a.table.Touch(st.ID)
		before := st.ARQ.Delivered
		st.ARQ.Apply(m.Ack)
		if delta := st.ARQ.Delivered - before; delta > 0 {
			a.links[st.ID].delivered += delta
			a.table.AddDownlinkBytes(st, delta*a.cfg.MPDUBytes)
		}
	case KindData:
		// Uplink data: acknowledge liveness only at this model level.
		a.table.Touch(id)
	case KindBye:
		if a.table.Teardown(id) {
			a.cache.Remove(id)
			delete(a.addrs, id)
			reason := m.Reason
			if reason == "" {
				reason = "bye"
			}
			a.hub.Publish(stream.Event{Type: stream.EventStationDrop,
				Station: id, Reason: reason})
			a.log.Info("station departed", slog.Int("station", int(id)),
				slog.String("reason", m.Reason))
		}
	case KindAssocAck, KindSound:
		// AP-originated kinds arriving at the AP are misrouted; drop them.
	}
}

// tick runs one downlink round: expire the idle, sweep stale CSI, sound the
// field, top up every station's ARQ window, and transmit the scheduled
// group's frames through the seeded loss model.
func (a *AP) tick() {
	a.ticks++
	for _, id := range a.table.ExpireIdle(a.cfg.IdleTimeout) {
		a.cache.Remove(id)
		delete(a.addrs, id)
		a.hub.Publish(stream.Event{Type: stream.EventStationDrop,
			Station: id, Reason: "idle-timeout"})
		a.log.Info("station expired", slog.Int("station", int(id)))
	}
	for _, id := range a.cache.SweepList() {
		a.hub.Publish(stream.Event{Type: stream.EventCSIStale, Station: id})
	}

	ids := a.table.IDs()
	if a.ticks%a.cfg.SoundEvery == 0 {
		a.token++
		for _, id := range ids {
			if addr, ok := a.addrs[id]; ok {
				a.send(addr, id, &Msg{Kind: KindSound, Token: a.token})
			}
		}
	}

	cands := make([]mumimo.Candidate, 0, len(ids))
	for _, id := range ids {
		st, ok := a.table.Get(id)
		if !ok {
			continue
		}
		// Saturated downlink: keep the ARQ window full.
		for st.ARQ.Outstanding() < ARQWindow {
			st.ARQ.Queue(a.payloadFor(id))
		}
		ls, ok := a.links[id]
		if !ok {
			ls = &linkStats{lastServed: a.ticks}
			a.links[id] = ls
		}
		entry, _ := a.cache.Get(id)
		cands = append(cands, mumimo.Candidate{Station: id, Queue: a.ticks - ls.lastServed + 1, Entry: entry})
		if age, ok := a.cache.Age(id); ok {
			a.table.ReportCSIAge(st, age)
		}
	}
	group, _ := a.sched.Pick(cands)
	for _, member := range group.Members {
		st, ok := a.table.Get(member.Station)
		if !ok {
			continue
		}
		addr, ok := a.addrs[member.Station]
		if !ok {
			continue
		}
		frames := st.ARQ.Round()
		if len(frames) > len(member.Streams) {
			frames = frames[:len(member.Streams)]
		}
		ls := a.links[member.Station]
		ls.lastServed = a.ticks
		for _, f := range frames {
			ls.attempts++
			if a.cfg.DropProb > 0 && a.dropRng.Float64() < a.cfg.DropProb {
				continue // lost on air; the ARQ round retransmits
			}
			mpdu, err := f.Encode()
			if err != nil {
				continue
			}
			a.send(addr, member.Station, &Msg{Kind: KindData, MPDU: mpdu})
		}
		if ls.attempts > 0 {
			a.table.ReportPER(st, 1-float64(ls.delivered)/float64(ls.attempts))
		}
	}
}

// payloadFor builds one downlink MPDU payload: a deterministic filler
// stamped with the station ID so the receive side can sanity-check routing.
func (a *AP) payloadFor(id uint16) []byte {
	p := make([]byte, a.cfg.MPDUBytes)
	for i := range p {
		p[i] = byte(int(id) + i)
	}
	return p
}

// send encodes one message to a station as a data frame keyed by its ID.
func (a *AP) send(addr *net.UDPAddr, station uint16, m *Msg) {
	if payload, err := AppendMessage(nil, m); err == nil {
		a.seq++
		a.svc.Send(addr, uint64(station), a.seq, payload)
	}
}

func dbToLinear(db float64) float64 { return math.Pow(10, db/10) }
