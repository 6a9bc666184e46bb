package apmac

import (
	"bytes"
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/radio"
)

// TestAPLoopback runs a live AP with several station clients over loopback
// UDP: every station must associate, answer sounding, and receive precoded
// downlink MPDUs addressed to it, with the seeded loss model exercising the
// per-station ARQ.
func TestAPLoopback(t *testing.T) {
	if testing.Short() {
		t.Skip("live UDP soak")
	}
	reg := obs.NewRegistry()
	ap, err := NewAP(APConfig{
		Listen:       "127.0.0.1:0",
		TickInterval: 2 * time.Millisecond,
		SoundEvery:   5,
		DropProb:     0.2,
		Seed:         42,
		Registry:     reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	apDone := make(chan error, 1)
	go func() { apDone <- ap.Run(ctx) }()

	const n = 6
	clients := make([]*Client, n)
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		c, err := NewClient(ClientConfig{Addr: ap.Addr().String(), Index: i, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = c
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = c.Run(ctx)
		}(i)
	}

	deadline := time.After(8 * time.Second)
	for {
		served := 0
		for _, c := range clients {
			if func() bool { st := c.Snapshot(); return st.Associated && st.DataFrames > 2 && st.Soundings > 0 }() {
				served++
			}
		}
		if served == n {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("stations served: %d/%d after timeout", served, n)
		case <-time.After(50 * time.Millisecond):
		}
	}
	if got := ap.Stations(); got != n {
		t.Errorf("AP tracks %d stations, want %d", got, n)
	}
	cancel()
	wg.Wait()
	if err := <-apDone; err != nil {
		t.Fatalf("AP run: %v", err)
	}
	ids := map[uint16]bool{}
	for i, c := range clients {
		st := c.Snapshot()
		if errs[i] != nil {
			t.Errorf("station %d: %v", i, errs[i])
		}
		if st.PayloadFault > 0 {
			t.Errorf("station %d saw %d misrouted payloads", i, st.PayloadFault)
		}
		if st.AcksSent == 0 {
			t.Errorf("station %d never acknowledged", i)
		}
		if ids[st.ID] {
			t.Errorf("station ID %d assigned twice", st.ID)
		}
		ids[st.ID] = true
	}
	var buf bytes.Buffer
	if err := obs.WriteProm(&buf, reg); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{metricStations, metricAssocTotal, metricStationBytes} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Errorf("AP exposition missing %s", want)
		}
	}
}

// TestClientRecordSeq checks the sliding block-ack window against the
// sender-side Acked view.
func TestClientRecordSeq(t *testing.T) {
	c := &Client{}
	for _, seq := range []uint16{10, 11, 13, 12, 14} {
		c.recordSeq(seq)
	}
	if c.haveMax != 14 {
		t.Fatalf("haveMax = %d", c.haveMax)
	}
	start := (c.haveMax - 63) & 0x0FFF
	ackBits := c.haveBits
	acked := func(seq uint16) bool {
		off := int(seq-start) & 0x0FFF
		return off < 64 && ackBits&(1<<uint(off)) != 0
	}
	for _, seq := range []uint16{10, 11, 12, 13, 14} {
		if !acked(seq) {
			t.Errorf("seq %d not acked", seq)
		}
	}
	if acked(9) || acked(15) {
		t.Error("unreceived sequences acked")
	}
	// A jump far ahead clears the stale window.
	c.recordSeq(200)
	if c.haveMax != 200 || c.haveBits != 1<<63 {
		t.Errorf("window after jump: max %d bits %x", c.haveMax, c.haveBits)
	}
}

// TestClientSkipsGarbageBeforeAssocAck: a datagram that is not an AP frame,
// arriving ahead of the AssocAck, costs the station no second association
// attempt.
func TestClientSkipsGarbageBeforeAssocAck(t *testing.T) {
	fake, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer fake.Close()
	c, err := NewClient(ClientConfig{Addr: fake.LocalAddr().String(), Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- c.Run(ctx) }()

	buf := make([]byte, 64*1024)
	if err := fake.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	n, station, err := fake.ReadFromUDP(buf)
	if err != nil {
		t.Fatal(err)
	}
	h, err := radio.DecodeHeader(buf[:n])
	if err != nil {
		t.Fatal(err)
	}
	body, err := radio.DecodeDataPayload(h, buf[h.HeaderLen():n])
	if err != nil {
		t.Fatal(err)
	}
	if m, err := DecodeMessage(body); err != nil || m.Kind != KindAssoc || h.ID != m.Nonce {
		t.Fatalf("first datagram: %+v (err %v), want an Assoc keyed by its nonce", m, err)
	}
	payload, err := AppendMessage(nil, &Msg{Kind: KindAssocAck, AssignedID: 9, Slot: 1,
		CWMinExp: DefaultCWMinExp, CWMaxExp: DefaultCWMaxExp})
	if err != nil {
		t.Fatal(err)
	}
	ack, err := radio.EncodeDataFrame(nil, radio.Header{ID: 9}, payload)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range [][]byte{[]byte("not a frame"), ack} {
		if _, err := fake.WriteToUDP(d, station); err != nil {
			t.Fatal(err)
		}
	}
	for deadline := time.Now().Add(5 * time.Second); !c.Snapshot().Associated; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("station never associated")
		}
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if st := c.Snapshot(); st.AssocTries != 1 || st.ID != 9 {
		t.Errorf("AssocTries %d, ID %d; want 1 try for ID 9", st.AssocTries, st.ID)
	}
}

// TestAPDropsWideStationIDs: only an association request may carry an ID
// wider than a station ID; any other frame with one is dropped rather than
// truncated onto the station it aliases.
func TestAPDropsWideStationIDs(t *testing.T) {
	ap, err := NewAP(APConfig{Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	from := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 9}
	route := func(id uint64, m *Msg) {
		body, err := AppendMessage(nil, m)
		if err != nil {
			t.Fatal(err)
		}
		ap.route(radio.Header{Streams: 1, Flags: radio.FlagData, Count: len(body), ID: id}, body, from)
	}
	const nonce = 0x0123456789
	route(nonce, &Msg{Kind: KindAssoc, Nonce: nonce, RXAntennas: 1})
	list := ap.StationList()
	if len(list) != 1 {
		t.Fatalf("%d stations after Assoc, want 1", len(list))
	}
	id := uint64(list[0].ID)
	route(1<<16|id, &Msg{Kind: KindBye})
	if ap.Stations() != 1 {
		t.Fatal("a Bye with a wide ID tore down the station it aliases")
	}
	route(id, &Msg{Kind: KindBye})
	if ap.Stations() != 0 {
		t.Fatal("a Bye with the station's ID left it associated")
	}
	// Run on an ended context returns at once and releases the socket.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := ap.Run(ctx); err != nil {
		t.Fatal(err)
	}
}
