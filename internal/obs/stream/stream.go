// Package stream is the push side of the observability stack: a
// subscription hub layered on the obs.Registry and trace ring that turns
// the pull-only /metrics surface into live telemetry a fleet aggregator can
// watch. It emits two interleaved feeds per node:
//
//   - a structured event journal — session and station lifecycle
//     transitions, supervisor restarts, CSI staleness, flight-dump
//     triggers — published synchronously by the instrumented subsystems
//     (internal/session, internal/apmac, the service binaries) with a
//     per-node monotonic sequence number;
//   - periodic delta-encoded metric snapshots — on every snapshot tick the
//     hub gathers the registry and broadcasts only the points that changed
//     since the previous tick, so a fleet of mostly-idle nodes streams
//     close to nothing.
//
// The hub follows the PR 4 zero-cost discipline: with no subscriber
// attached, Publish is allocation-free (AllocsPerRun==0 — the events land
// in a preallocated replay ring and nothing is encoded) and snapshot ticks
// gather nothing. Every subscriber owns a bounded queue; a subscriber that
// stalls until its queue fills is dropped — the publisher never blocks and
// healthy subscribers never wait on a sick one.
//
// Snapshot cadence runs on the repro/internal/clock seam, so the delta
// stream is fake-clock testable end to end.
package stream

import (
	"context"
	"encoding/json"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/obs"
)

// EventType enumerates the journal event vocabulary.
type EventType string

// Journal event types. The session gateway publishes the session_* family,
// the AP MAC publishes the station_* family and csi_stale, and any
// supervised service publishes supervisor_restart and flight_dump.
const (
	EventSupervisorRestart EventType = "supervisor_restart"
	EventSessionOpened     EventType = "session_opened"
	EventSessionResumed    EventType = "session_resumed"
	EventSessionCompleted  EventType = "session_completed"
	EventSessionFailed     EventType = "session_failed"
	EventStationAssoc      EventType = "station_assoc"
	EventStationDrop       EventType = "station_drop"
	EventCSIStale          EventType = "csi_stale"
	EventFlightDump        EventType = "flight_dump"
	EventTraceFail         EventType = "trace_fail"
)

// Event is one journal entry. The struct is flat — no maps, no nested
// pointers — so storing one into the replay ring is a plain copy and the
// no-subscriber publish path stays allocation-free. Seq, UnixNs and Node
// are stamped by the hub; everything else is the publisher's.
type Event struct {
	// Seq is the per-node monotonic sequence number, stamped by Publish.
	// Subscribers (and the aggregator) use it to assert ordering and detect
	// gaps after a replay.
	Seq uint64 `json:"seq"`
	// UnixNs is the hub-clock publish time.
	UnixNs int64 `json:"unix_ns"`
	// Node is the hub's node name ("gw", "ap", "rx", ...).
	Node string `json:"node,omitempty"`
	// Type is the event vocabulary entry.
	Type EventType `json:"type"`
	// Session carries the session ID for session_* events.
	Session uint64 `json:"session,omitempty"`
	// Station and Slot carry the station identity for station_* events.
	Station uint16 `json:"station,omitempty"`
	Slot    uint8  `json:"slot,omitempty"`
	// Packet carries the packet ID for trace_fail events.
	Packet uint64 `json:"packet,omitempty"`
	// Block names the flowgraph block for supervisor_restart.
	Block string `json:"block,omitempty"`
	// Attempt is the restart attempt number for supervisor_restart.
	Attempt int `json:"attempt,omitempty"`
	// Reason carries the failure/teardown taxonomy string.
	Reason string `json:"reason,omitempty"`
	// Bytes carries a byte count where the event has one (session totals).
	Bytes int64 `json:"bytes,omitempty"`
	// File names the artifact for flight_dump events.
	File string `json:"file,omitempty"`
}

// Frame is one server-sent-events frame: a named event and its JSON
// payload. Event is "hello", "journal" or "metrics".
type Frame struct {
	Event string
	Data  []byte
}

// Hello is the first frame every subscriber receives.
type Hello struct {
	Node string `json:"node"`
	// SnapshotMs is the metric snapshot cadence in milliseconds.
	SnapshotMs int64 `json:"snapshot_ms"`
	// Seq is the node's journal sequence at subscribe time; replayed
	// events carry sequence numbers at or below it.
	Seq uint64 `json:"seq"`
}

// Config assembles a Hub. Only Node is required; a nil Registry streams
// journal events only.
type Config struct {
	// Node is the identity stamped on every event and snapshot.
	Node string
	// Registry is the metrics root the snapshot ticks gather.
	Registry *obs.Registry
	// Tracer, when set, is scanned on each snapshot tick: traces that
	// finished failed since the previous tick surface as trace_fail
	// journal events.
	Tracer *obs.Tracer
	// Clock injects time; nil is the system clock.
	//mimonet:testonly-ok tests inject clock.Fake to drive snapshot ticks and event stamps
	Clock clock.Clock
	// SnapshotPeriod is the metric snapshot cadence. Default 1s.
	SnapshotPeriod time.Duration
}

const (
	// queueDepth bounds each subscriber's frame queue. A subscriber whose
	// queue fills is dropped.
	queueDepth = 256
	// journalDepth sizes the replay ring handed to new subscribers.
	journalDepth = 256
)

func (c Config) withDefaults() Config {
	c.Clock = clock.Or(c.Clock)
	if c.SnapshotPeriod <= 0 {
		c.SnapshotPeriod = time.Second
	}
	return c
}

// Hub is the per-node subscription fan-out. All methods are safe for
// concurrent use, and every method no-ops on a nil *Hub so instrumented
// packages wire it unconditionally.
type Hub struct {
	cfg Config
	clk clock.Clock

	// Self-telemetry (nil-safe instruments when no registry is configured).
	gSubs    *obs.Gauge
	cEvents  *obs.Counter
	cDropped *obs.Counter

	mu    sync.Mutex
	seq   uint64
	subs  map[*Subscriber]struct{}
	ring  []Event // preallocated replay ring
	ringN uint64  // total events ever published
	diff  differ
	// lastTraceID is the newest trace ring ID already scanned for
	// trace_fail events.
	lastTraceID uint64
}

// NewHub returns a hub over cfg. Self-telemetry (subscriber gauge, event
// and dropped-subscriber counters) registers on cfg.Registry when present.
func NewHub(cfg Config) *Hub {
	cfg = cfg.withDefaults()
	h := &Hub{
		cfg:  cfg,
		clk:  cfg.Clock,
		subs: make(map[*Subscriber]struct{}),
		ring: make([]Event, journalDepth),
	}
	if reg := cfg.Registry; reg != nil {
		h.gSubs = reg.Gauge("mimonet_stream_subscribers", "live stream subscribers")
		h.cEvents = reg.Counter("mimonet_stream_events_total", "journal events published")
		h.cDropped = reg.Counter("mimonet_stream_dropped_subscribers_total", "subscribers dropped for stalling with a full queue")
	}
	return h
}

// Publish stamps ev with the node identity, the next sequence number and
// the hub-clock time, stores it in the replay ring, and fans it out to
// every subscriber. With no subscriber attached the call is
// allocation-free: the event is copied into the preallocated ring and
// nothing is encoded. Safe on a nil hub.
func (h *Hub) Publish(ev Event) {
	if h == nil {
		return
	}
	h.cEvents.Inc()
	h.mu.Lock()
	h.seq++
	ev.Seq = h.seq
	ev.Node = h.cfg.Node
	ev.UnixNs = h.clk.Now().UnixNano()
	h.ring[h.ringN%uint64(len(h.ring))] = ev
	h.ringN++
	if len(h.subs) > 0 {
		if data, err := json.Marshal(ev); err == nil {
			h.broadcastLocked(Frame{Event: "journal", Data: data})
		}
	}
	h.mu.Unlock()
}

// PublishRestart journals one supervisor restart. It has the signature of
// flowgraph.Policy.OnRestart, so a supervised service passes
// hub.PublishRestart straight through. Safe on a nil hub.
func (h *Hub) PublishRestart(block string, attempt int, err error) {
	if h == nil {
		return
	}
	ev := Event{Type: EventSupervisorRestart, Block: block, Attempt: attempt}
	if err != nil {
		ev.Reason = err.Error()
	}
	h.Publish(ev)
}

// broadcastLocked offers f to every subscriber without ever blocking: a
// subscriber whose bounded queue is full is stalled, so it is removed and
// its channel closed — the slow-subscriber drop policy. Caller holds h.mu.
func (h *Hub) broadcastLocked(f Frame) {
	for s := range h.subs {
		select {
		case s.ch <- f:
		default:
			delete(h.subs, s)
			s.dropped.Store(true)
			close(s.ch)
			h.cDropped.Inc()
		}
	}
	h.gSubs.Set(float64(len(h.subs)))
}

// Subscriber is one attached stream consumer. Frames arrive on C; the
// channel closes when the subscriber is dropped for stalling or Close is
// called.
type Subscriber struct {
	// C delivers frames in publish order.
	C <-chan Frame

	hub     *Hub
	ch      chan Frame
	dropped atomic.Bool
}

// Close detaches the subscriber. Idempotent; safe concurrently with a hub
// drop (whoever removes the subscriber from the hub closes the channel, so
// it is closed exactly once).
func (s *Subscriber) Close() {
	h := s.hub
	h.mu.Lock()
	if _, ok := h.subs[s]; ok {
		delete(h.subs, s)
		close(s.ch)
		h.gSubs.Set(float64(len(h.subs)))
	}
	h.mu.Unlock()
}

// errNilHub is returned by Subscribe on a nil hub, which has nothing to
// stream.
var errNilHub = errors.New("stream: nil hub")

// Subscribe attaches a new consumer. The queue is pre-seeded with a hello
// frame, a replay of the journal ring (oldest first), and — when a
// registry is configured — one full (non-delta) metric snapshot, so a
// late subscriber starts from a complete picture before live deltas and
// events flow. The queue is sized queueDepth beyond the seed, so the seed
// itself can never trip the drop policy.
func (h *Hub) Subscribe() (*Subscriber, error) {
	if h == nil {
		return nil, errNilHub
	}
	// Gather outside the lock: a full snapshot can be large and the
	// publish path must not wait on it.
	var fullFrame *Frame
	if h.cfg.Registry != nil {
		msg := MetricsMsg{
			Node:   h.cfg.Node,
			UnixNs: h.clk.Now().UnixNano(),
			Full:   true,
			Points: allPoints(h.cfg.Registry.Gather()),
		}
		if data, err := json.Marshal(msg); err == nil {
			fullFrame = &Frame{Event: "metrics", Data: data}
		}
	}

	h.mu.Lock()
	defer h.mu.Unlock()
	replay := h.replayLocked()
	s := &Subscriber{hub: h, ch: make(chan Frame, queueDepth+len(replay)+2)}
	s.C = s.ch
	hello, err := json.Marshal(Hello{
		Node:       h.cfg.Node,
		SnapshotMs: h.cfg.SnapshotPeriod.Milliseconds(),
		Seq:        h.seq,
	})
	if err != nil {
		return nil, err
	}
	s.ch <- Frame{Event: "hello", Data: hello}
	for _, ev := range replay {
		if data, err := json.Marshal(ev); err == nil {
			s.ch <- Frame{Event: "journal", Data: data}
		}
	}
	if fullFrame != nil {
		s.ch <- *fullFrame
	}
	h.subs[s] = struct{}{}
	h.gSubs.Set(float64(len(h.subs)))
	return s, nil
}

// replayLocked copies the journal ring oldest-first. Caller holds h.mu.
func (h *Hub) replayLocked() []Event {
	n := uint64(len(h.ring))
	fill := h.ringN
	if fill > n {
		fill = n
	}
	if fill == 0 {
		return nil
	}
	out := make([]Event, 0, fill)
	for i := h.ringN - fill; i < h.ringN; i++ {
		out = append(out, h.ring[i%n])
	}
	return out
}

// Run drives the snapshot cadence until ctx is done: on every tick of the
// hub clock, gather the registry, broadcast the points that changed since
// the previous tick, and surface newly-failed traces as trace_fail journal
// events. With no subscriber attached a tick does nothing — no gather, no
// diff, no encode.
func (h *Hub) Run(ctx context.Context) {
	if h == nil {
		return
	}
	tk := h.clk.NewTicker(h.cfg.SnapshotPeriod)
	defer tk.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tk.C:
			h.Tick()
		}
	}
}

// Tick runs one snapshot round immediately — the seam Run loops over,
// exported so tests (and one-shot tools) can force a snapshot without a
// clock.
func (h *Hub) Tick() {
	if h == nil {
		return
	}
	h.mu.Lock()
	idle := len(h.subs) == 0
	h.mu.Unlock()
	if idle {
		return
	}
	if h.cfg.Registry != nil {
		snap := h.cfg.Registry.Gather()
		h.mu.Lock()
		pts := h.diff.delta(snap)
		if len(pts) > 0 {
			msg := MetricsMsg{Node: h.cfg.Node, UnixNs: h.clk.Now().UnixNano(), Points: pts}
			if data, err := json.Marshal(msg); err == nil {
				h.broadcastLocked(Frame{Event: "metrics", Data: data})
			}
		}
		h.mu.Unlock()
	}
	if h.cfg.Tracer != nil {
		h.scanTraces()
	}
}

// scanTraces publishes a trace_fail event for every trace that finished
// failed since the last scan.
func (h *Hub) scanTraces() {
	snaps := h.cfg.Tracer.Snapshots() // newest first
	h.mu.Lock()
	last := h.lastTraceID
	newest := last
	var failed []obs.TraceSnapshot
	for _, t := range snaps {
		if t.ID <= last {
			break
		}
		if t.ID > newest {
			newest = t.ID
		}
		if t.Done && !t.OK {
			failed = append(failed, t)
		}
	}
	h.lastTraceID = newest
	h.mu.Unlock()
	// Oldest first, so journal order matches trace order.
	for i := len(failed) - 1; i >= 0; i-- {
		h.Publish(Event{Type: EventTraceFail, Packet: failed[i].PacketID, Reason: "trace_failed"})
	}
}
