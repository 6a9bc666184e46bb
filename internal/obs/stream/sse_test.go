package stream_test

import (
	"context"
	"errors"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/obs"
	"repro/internal/obs/stream"
)

// TestSSERoundtrip drives the full wire path: hub → SSE handler → HTTP →
// ReadSSE → frames, asserting the attach sequence and a live event survive
// serialization.
func TestSSERoundtrip(t *testing.T) {
	clk := clock.NewFake(time.Unix(3000, 0))
	reg := obs.NewRegistry()
	reg.Counter("mimonet_test_total", "test counter").Add(11)
	h := stream.NewHub(stream.Config{Node: "gw", Registry: reg, Clock: clk})
	h.Publish(stream.Event{Type: stream.EventSessionOpened, Session: 5})

	srv := httptest.NewServer(stream.Handler(h))
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}

	// Publish a live event once the subscription exists (Subscribe happened
	// synchronously inside the handler before the response headers we just
	// read were written).
	h.Publish(stream.Event{Type: stream.EventStationAssoc, Station: 3, Slot: 1})

	stop := errors.New("enough")
	var got []stream.Frame
	err = stream.ReadSSE(resp.Body, func(f stream.Frame) error {
		got = append(got, f)
		if len(got) == 4 { // hello, replay, full metrics, live event
			return stop
		}
		return nil
	})
	if !errors.Is(err, stop) {
		t.Fatalf("ReadSSE err = %v, want the sentinel", err)
	}
	wantOrder := []string{"hello", "journal", "metrics", "journal"}
	for i, f := range got {
		if f.Event != wantOrder[i] {
			t.Fatalf("frame %d = %q, want %q (all: %+v)", i, f.Event, wantOrder[i], got)
		}
	}
	live := decodeEvent(t, got[3])
	if live.Type != stream.EventStationAssoc || live.Station != 3 || live.Seq != 2 {
		t.Fatalf("live event = %+v", live)
	}
	full := decodeMetrics(t, got[2])
	if !full.Full || findPoint(full.Points, "mimonet_test_total") == nil {
		t.Fatalf("full frame = %+v", full)
	}
}

func TestReadSSEFnErrorStopsAndPropagates(t *testing.T) {
	input := "event: journal\ndata: {}\n\nevent: journal\ndata: {}\n\n"
	boom := errors.New("boom")
	calls := 0
	err := stream.ReadSSE(strings.NewReader(input), func(stream.Frame) error {
		calls++
		return boom
	})
	if !errors.Is(err, boom) || calls != 1 {
		t.Fatalf("err = %v calls = %d, want boom after 1 call", err, calls)
	}
}

func TestReadSSEFinalFrameWithoutTrailingBlank(t *testing.T) {
	input := "event: hello\ndata: {\"node\":\"gw\"}\n"
	var got []stream.Frame
	if err := stream.ReadSSE(strings.NewReader(input), func(f stream.Frame) error {
		got = append(got, f)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Event != "hello" {
		t.Fatalf("frames = %+v", got)
	}
}

// TestAggregatorMergesNodes subscribes one aggregator to two live hubs,
// each served the way the binaries serve it (obs.Server at /stream), and
// checks both node streams arrive tagged, plus per-node error reporting for
// a dead endpoint.
func TestAggregatorMergesNodes(t *testing.T) {
	mk := func(node string) (*stream.Hub, *obs.Server, string) {
		clk := clock.NewFake(time.Unix(3000, 0))
		h := stream.NewHub(stream.Config{Node: node, Clock: clk})
		srv := obs.NewServer(nil, nil, nil)
		srv.Handle("/stream", stream.Handler(h))
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		return h, srv, "http://" + addr.String()
	}
	gw, gwSrv, gwURL := mk("gw")
	defer gwSrv.Close()
	ap, apSrv, apURL := mk("ap")
	defer apSrv.Close()

	gw.Publish(stream.Event{Type: stream.EventSessionOpened, Session: 1})
	ap.Publish(stream.Event{Type: stream.EventStationAssoc, Station: 7, Slot: 0})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	out := make(chan stream.Msg, 64)
	agg := &stream.Aggregator{Nodes: []stream.NodeRef{
		{Name: "gw", BaseURL: gwURL},
		{Name: "ap", BaseURL: apURL},
		{Name: "dead", BaseURL: "http://127.0.0.1:1"},
	}}
	done := make(chan error, 1)
	go func() { done <- agg.Run(ctx, out) }()

	want := map[string]string{"gw": "", "ap": "", "dead": ""}
	deadline := time.After(10 * time.Second)
	for {
		gotAll := true
		for _, v := range want {
			if v == "" {
				gotAll = false
			}
		}
		if gotAll {
			break
		}
		select {
		case m := <-out:
			switch {
			case m.Kind == "journal" && m.Event != nil:
				want[m.Node] = string(m.Event.Type)
			case m.Kind == "error":
				want[m.Node] = "error:" + m.Err
			}
		case <-deadline:
			t.Fatalf("timed out waiting for all nodes; got %+v", want)
		}
	}
	if want["gw"] != string(stream.EventSessionOpened) {
		t.Fatalf("gw saw %q", want["gw"])
	}
	if want["ap"] != string(stream.EventStationAssoc) {
		t.Fatalf("ap saw %q", want["ap"])
	}
	if !strings.HasPrefix(want["dead"], "error:") {
		t.Fatalf("dead node reported %q, want an error message", want["dead"])
	}

	// Closing the servers ends the live streams; Run returns once every
	// node goroutine finishes.
	gwSrv.Close()
	apSrv.Close()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Run = %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("aggregator Run did not return after the servers closed")
	}
}

func TestAggregatorNeedsNodes(t *testing.T) {
	agg := &stream.Aggregator{}
	if err := agg.Run(context.Background(), make(chan stream.Msg, 1)); err == nil {
		t.Fatal("Run with no nodes succeeded")
	}
}
