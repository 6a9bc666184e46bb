package stream_test

import (
	"context"
	"encoding/json"
	"errors"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/obs"
	"repro/internal/obs/stream"
)

func decodeEvent(t *testing.T, f stream.Frame) stream.Event {
	t.Helper()
	if f.Event != "journal" {
		t.Fatalf("frame type = %q, want journal", f.Event)
	}
	var ev stream.Event
	if err := json.Unmarshal(f.Data, &ev); err != nil {
		t.Fatalf("journal decode: %v", err)
	}
	return ev
}

func decodeMetrics(t *testing.T, f stream.Frame) stream.MetricsMsg {
	t.Helper()
	if f.Event != "metrics" {
		t.Fatalf("frame type = %q, want metrics", f.Event)
	}
	var m stream.MetricsMsg
	if err := json.Unmarshal(f.Data, &m); err != nil {
		t.Fatalf("metrics decode: %v", err)
	}
	return m
}

// findPoint digs a series out of a snapshot by family name; the hub's own
// self-metrics ride along in every frame, so tests must select rather than
// index.
func findPoint(points []stream.MetricPoint, name string) *stream.MetricPoint {
	for i := range points {
		if points[i].Name == name {
			return &points[i]
		}
	}
	return nil
}

// recv pulls one frame with a liberal timeout so a broken hub fails the test
// instead of hanging it.
func recv(t *testing.T, c <-chan stream.Frame) stream.Frame {
	t.Helper()
	select {
	case f, ok := <-c:
		if !ok {
			t.Fatal("subscriber channel closed unexpectedly")
		}
		return f
	case <-time.After(5 * time.Second):
		t.Fatal("no frame within 5s")
	}
	panic("unreachable")
}

func TestJournalReplayAndLive(t *testing.T) {
	clk := clock.NewFake(time.Unix(3000, 0))
	h := stream.NewHub(stream.Config{Node: "gw", Clock: clk})
	for i := 1; i <= 3; i++ {
		h.Publish(stream.Event{Type: stream.EventSessionOpened, Session: uint64(i)})
	}
	sub, err := h.Subscribe()
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	f := recv(t, sub.C)
	if f.Event != "hello" {
		t.Fatalf("first frame = %q, want hello", f.Event)
	}
	var hello stream.Hello
	if err := json.Unmarshal(f.Data, &hello); err != nil {
		t.Fatal(err)
	}
	if hello.Node != "gw" || hello.Seq != 3 {
		t.Fatalf("hello = %+v, want node gw seq 3", hello)
	}

	// Replay: the pre-subscribe journal, oldest first, stamped sequences.
	for i := 1; i <= 3; i++ {
		ev := decodeEvent(t, recv(t, sub.C))
		if ev.Seq != uint64(i) || ev.Session != uint64(i) || ev.Node != "gw" {
			t.Fatalf("replay %d = %+v", i, ev)
		}
		if ev.UnixNs != time.Unix(3000, 0).UnixNano() {
			t.Fatalf("replay %d stamped %d, want the fake clock", i, ev.UnixNs)
		}
	}

	// Live publishes keep flowing after the replay.
	h.Publish(stream.Event{Type: stream.EventSessionCompleted, Session: 9, Bytes: 512})
	ev := decodeEvent(t, recv(t, sub.C))
	if ev.Seq != 4 || ev.Type != stream.EventSessionCompleted || ev.Bytes != 512 {
		t.Fatalf("live event = %+v", ev)
	}
}

func TestJournalRingKeepsNewest(t *testing.T) {
	clk := clock.NewFake(time.Unix(3000, 0))
	h := stream.NewHub(stream.Config{Node: "gw", Clock: clk})
	const published = stream.JournalDepth + 6
	for i := 1; i <= published; i++ {
		h.Publish(stream.Event{Type: stream.EventSessionOpened, Session: uint64(i)})
	}
	sub, err := h.Subscribe()
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	recv(t, sub.C) // hello
	for want := uint64(7); want <= published; want++ {
		ev := decodeEvent(t, recv(t, sub.C))
		if ev.Seq != want {
			t.Fatalf("replay seq = %d, want %d", ev.Seq, want)
		}
	}
}

// TestPublishNoSubscribersAllocFree is the zero-cost gate: with nobody
// attached, Publish must not allocate — events land in the preallocated
// ring and nothing is encoded.
func TestPublishNoSubscribersAllocFree(t *testing.T) {
	clk := clock.NewFake(time.Unix(3000, 0))
	reg := obs.NewRegistry()
	h := stream.NewHub(stream.Config{Node: "gw", Registry: reg, Clock: clk})
	ev := stream.Event{Type: stream.EventSessionCompleted, Session: 7, Bytes: 4096, Reason: "idle-timeout"}
	if n := testing.AllocsPerRun(1000, func() { h.Publish(ev) }); n != 0 {
		t.Fatalf("Publish with no subscribers allocates %.1f per call, want 0", n)
	}
}

// TestSlowSubscriberDropped is the backpressure regression (run under -race
// in CI): a stalled consumer is detached once its bounded queue fills, its
// channel closes exactly once, and neither the publisher nor a healthy
// subscriber ever blocks on it.
func TestSlowSubscriberDropped(t *testing.T) {
	clk := clock.NewFake(time.Unix(3000, 0))
	// No registry: the attach sequence is just the hello frame, so the
	// journal arithmetic below is exact.
	h := stream.NewHub(stream.Config{Node: "gw", Clock: clk})
	slow, err := h.Subscribe()
	if err != nil {
		t.Fatal(err)
	}
	fast, err := h.Subscribe()
	if err != nil {
		t.Fatal(err)
	}
	defer fast.Close()
	if f := recv(t, fast.C); f.Event != "hello" {
		t.Fatalf("fast first frame = %q", f.Event)
	}

	// Publish far past the slow queue's bound, draining fast in lockstep so
	// only the stalled subscriber ever fills. The loop finishing at all is
	// the publisher-never-blocks assertion.
	const publishes = 2 * stream.QueueDepth
	for i := 0; i < publishes; i++ {
		h.Publish(stream.Event{Type: stream.EventStationAssoc, Station: uint16(i + 1)})
		ev := decodeEvent(t, recv(t, fast.C))
		if ev.Station != uint16(i+1) {
			t.Fatalf("fast got station %d at publish %d", ev.Station, i+1)
		}
	}

	if !slow.DroppedSlow() {
		t.Fatal("slow subscriber not marked dropped")
	}
	if n := h.Subscribers(); n != 1 {
		t.Fatalf("subscribers = %d, want 1 (slow dropped)", n)
	}
	// The slow channel drains its queued frames and then closes.
	closed := false
	for i := 0; i < publishes+8; i++ {
		if _, ok := <-slow.C; !ok {
			closed = true
			break
		}
	}
	if !closed {
		t.Fatal("slow subscriber channel never closed after drop")
	}
	// Close on an already-dropped subscriber must be a safe no-op (single
	// closer invariant).
	slow.Close()
}

func TestTickDeltas(t *testing.T) {
	clk := clock.NewFake(time.Unix(3000, 0))
	reg := obs.NewRegistry()
	h := stream.NewHub(stream.Config{Node: "gw", Registry: reg, Clock: clk})
	c := reg.Counter("mimonet_test_total", "test counter")
	c.Add(3)

	sub, err := h.Subscribe()
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	recv(t, sub.C) // hello

	full := decodeMetrics(t, recv(t, sub.C))
	if !full.Full {
		t.Fatalf("first metrics frame not full: %+v", full)
	}
	if p := findPoint(full.Points, "mimonet_test_total"); p == nil || p.Value != 3 {
		t.Fatalf("full snapshot missing the counter: %+v", full.Points)
	}

	// First tick: the differ starts empty, so the counter shows as changed.
	h.Tick()
	d := decodeMetrics(t, recv(t, sub.C))
	if d.Full {
		t.Fatal("tick emitted a full snapshot, want delta")
	}
	if p := findPoint(d.Points, "mimonet_test_total"); p == nil || p.Delta != 3 {
		t.Fatalf("first delta = %+v", d.Points)
	}

	// Quiet tick: nothing changed, nothing sent.
	h.Tick()
	select {
	case f := <-sub.C:
		t.Fatalf("quiet tick emitted %q frame", f.Event)
	default:
	}

	c.Add(2)
	h.Tick()
	d = decodeMetrics(t, recv(t, sub.C))
	if len(d.Points) != 1 || d.Points[0].Delta != 2 || d.Points[0].Value != 5 {
		t.Fatalf("second delta = %+v", d.Points)
	}
}

func TestRunSnapshotCadenceOnFakeClock(t *testing.T) {
	clk := clock.NewFake(time.Unix(3000, 0))
	reg := obs.NewRegistry()
	h := stream.NewHub(stream.Config{Node: "gw", Registry: reg, Clock: clk, SnapshotPeriod: time.Second})
	c := reg.Counter("mimonet_test_total", "test counter")

	sub, err := h.Subscribe()
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	recv(t, sub.C) // hello (no full frame: counter exists but Subscribe sends one)
	recv(t, sub.C) // full metrics

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() { h.Run(ctx); close(done) }()
	clk.BlockUntilWaiters(1) // the snapshot ticker is armed

	c.Add(7)
	clk.Advance(time.Second) // exactly one snapshot period
	d := decodeMetrics(t, recv(t, sub.C))
	if p := findPoint(d.Points, "mimonet_test_total"); p == nil || p.Delta != 7 {
		t.Fatalf("delta after one period = %+v", d.Points)
	}

	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not stop on ctx cancel")
	}
}

func TestTickSurfacesFailedTraces(t *testing.T) {
	clk := clock.NewFake(time.Unix(3000, 0))
	tracer := obs.NewTracer(8, clk)
	h := stream.NewHub(stream.Config{Node: "rx", Tracer: tracer, Clock: clk})
	sub, err := h.Subscribe()
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	recv(t, sub.C) // hello

	ok := tracer.Start()
	ok.SetPacketID(41)
	ok.Finish(true)
	bad := tracer.Start()
	bad.SetPacketID(42)
	bad.Finish(false)

	h.Tick()
	ev := decodeEvent(t, recv(t, sub.C))
	if ev.Type != stream.EventTraceFail || ev.Packet != 42 {
		t.Fatalf("trace event = %+v", ev)
	}
	// Already-scanned traces do not resurface.
	h.Tick()
	select {
	case f := <-sub.C:
		t.Fatalf("second tick re-emitted %q", f.Event)
	default:
	}
}

func TestNilHubIsSafe(t *testing.T) {
	var h *stream.Hub
	h.Publish(stream.Event{Type: stream.EventSessionOpened})
	h.PublishRestart("gw-demux", 1, errors.New("panic"))
	h.Tick()
	h.Run(context.Background())
	if h.Subscribers() != 0 || h.Node() != "" {
		t.Fatal("nil hub reported state")
	}
	if _, err := h.Subscribe(); err == nil {
		t.Fatal("nil hub Subscribe succeeded")
	}
}

// TestPublishRestartJournals: the supervisor-restart hook journals the
// block, the attempt and the failure that caused the restart.
func TestPublishRestartJournals(t *testing.T) {
	h := stream.NewHub(stream.Config{Node: "gw", Clock: clock.NewFake(time.Unix(3000, 0))})
	h.PublishRestart("gw-demux", 2, errors.New("panic: boom"))
	sub, err := h.Subscribe()
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if f := recv(t, sub.C); f.Event != "hello" {
		t.Fatalf("first frame = %q, want hello", f.Event)
	}
	ev := decodeEvent(t, recv(t, sub.C))
	if ev.Type != stream.EventSupervisorRestart || ev.Block != "gw-demux" || ev.Attempt != 2 || ev.Reason != "panic: boom" {
		t.Fatalf("journal event = %+v", ev)
	}
}
