package repro

import (
	"math/rand"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/channel"
	"repro/internal/mac"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/phy"
	"repro/internal/radio"
)

// TestFlightRecorderLinkPostMortem reproduces the E11 failure workflow end
// to end: a TX process streams packets over the UDP radio link, injected
// datagram loss erases part of one packet's data region, the receive side's
// CRC failure trips the flight recorder, and merging the two ends' dumps
// yields a single timeline for the lost packet — keyed by the TX-assigned
// packet ID the framing header carried across the process boundary —
// holding the sync-window IQ, the per-subcarrier EVM, and the channel
// condition numbers a post-mortem needs.
func TestFlightRecorderLinkPostMortem(t *testing.T) {
	dir := t.TempDir()
	const lossyPacket = 2

	// TX side: transmitter, simulated channel, UDP sender with an
	// interceptor that drops a run of data-region datagrams of one packet
	// (the preamble and the end-of-burst frame survive, so the receiver
	// still syncs and the burst still terminates — the erasure lands on
	// coded data, which is exactly a CRC failure, not a sync loss).
	tx, err := phy.NewTransmitter(phy.TxConfig{MCS: 9, ScramblerSeed: 7})
	if err != nil {
		t.Fatal(err)
	}
	ch, err := channel.New(channel.Config{NumTX: 2, NumRX: 2, Model: channel.Identity,
		SNRdB: 30, Seed: 11, SampleRate: 20e6, TimingOffset: 280, TrailingSilence: 100})
	if err != nil {
		t.Fatal(err)
	}
	urx, err := radio.NewUDPReceiver("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer urx.Close()
	utx, err := radio.NewUDPSender(urx.Addr().String(), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer utx.Close()
	dgramInBurst := 0
	utx.Intercept = func(d []byte) [][]byte {
		h, err := radio.DecodeHeader(d)
		if err != nil {
			t.Fatalf("interceptor saw malformed frame: %v", err)
		}
		i := dgramInBurst
		dgramInBurst++
		if h.Flags&radio.FlagEndOfBurst != 0 {
			dgramInBurst = 0
		}
		if h.ID == lossyPacket && i >= 8 && i < 12 {
			return nil // injected loss: the receiver zero-fills the gap
		}
		return [][]byte{d}
	}
	txRec := flight.New(flight.Config{Capacity: 8, Dir: dir, Node: "tx"})

	// RX side: instrumented receiver with an armed flight recorder.
	tracer := obs.NewTracer(8, nil)
	tracer.SetRole("rx")
	rxObs := phy.NewRxObs(nil, tracer)
	rxRec := flight.New(flight.Config{Capacity: 8, Dir: dir, Node: "rx", OnFailure: true})
	rxObs.SetFlight(rxRec)
	rcv, err := phy.NewReceiver(phy.RxConfig{NumAntennas: 2, Detector: "mmse"})
	if err != nil {
		t.Fatal(err)
	}
	rcv.SetObs(rxObs)

	r := rand.New(rand.NewSource(31))
	verdicts := make(map[uint64]bool)
	for i := 0; i < 3; i++ {
		packetID := uint64(i) + 1
		payload := make([]byte, 400)
		r.Read(payload)
		frame := &mac.Frame{Seq: uint16(i), Payload: payload}
		psdu, err := frame.Encode()
		if err != nil {
			t.Fatal(err)
		}
		burst, err := tx.Transmit(psdu)
		if err != nil {
			t.Fatal(err)
		}
		faded, err := ch.Apply(burst)
		if err != nil {
			t.Fatal(err)
		}
		werr := make(chan error, 1)
		go func() { werr <- utx.WriteBurstID(packetID, faded) }()
		rx, rerr := urx.ReadBurst(5 * time.Second)
		if err := <-werr; err != nil {
			t.Fatal(err)
		}
		if rerr != nil {
			t.Fatal(rerr)
		}
		txRec.Record(flight.Evidence{PacketID: packetID, Verdict: flight.VerdictSent,
			MCS: 9, Note: "integration tx record"})

		rcv.SetPacketID(urx.LastPacketID())
		res, derr := rcv.Receive(rx)
		if derr != nil {
			t.Fatalf("packet %d: PHY decode failed (%v) — loss was meant to hit only the data region", packetID, derr)
		}
		rxObs.ActiveTrace().Begin(obs.StageCRC)
		_, merr := mac.Decode(res.PSDU)
		rxObs.PacketResult(merr == nil, len(res.PSDU))
		verdicts[urx.LastPacketID()] = merr == nil
	}

	// The injected loss must have produced exactly one CRC failure, on the
	// propagated (not locally guessed) packet ID.
	if verdicts[1] != true || verdicts[lossyPacket] != false || verdicts[3] != true {
		t.Fatalf("verdicts by propagated packet ID = %v, want only packet %d failed", verdicts, lossyPacket)
	}

	// The CRC failure must have tripped the recorder on its own: a trigger
	// artifact exists without any explicit Dump call on the rx recorder.
	trigger, err := filepath.Glob(filepath.Join(dir, "flight-rx-*-crc_fail.json"))
	if err != nil || len(trigger) != 1 {
		t.Fatalf("crc_fail trigger dumps = %v (err %v), want exactly 1", trigger, err)
	}
	txDumpFile, err := txRec.Dump("end_of_run")
	if err != nil {
		t.Fatal(err)
	}

	rxDump, err := flight.Load(trigger[0])
	if err != nil {
		t.Fatal(err)
	}
	txDump, err := flight.Load(txDumpFile)
	if err != nil {
		t.Fatal(err)
	}
	timelines := flight.Merge(txDump, rxDump)

	var lost *flight.Timeline
	for i := range timelines {
		if timelines[i].PacketID == lossyPacket {
			lost = &timelines[i]
		}
	}
	if lost == nil {
		t.Fatalf("merged timelines %v lack packet %d", timelines, lossyPacket)
	}
	if got := lost.Verdict(); got != flight.VerdictCRCFail {
		t.Fatalf("timeline verdict = %q, want %q", got, flight.VerdictCRCFail)
	}
	if len(lost.Entries) != 2 || lost.Entries[0].Node != "tx" || lost.Entries[1].Node != "rx" {
		t.Fatalf("timeline entries = %+v, want tx then rx", lost.Entries)
	}

	// The rx evidence is a self-contained post-mortem: IQ around the sync
	// point, per-subcarrier channel conditioning and EVM, and the stage
	// trace.
	ev := lost.Entries[1]
	if len(ev.SyncIQ) != 2 || len(ev.SyncIQ[0]) == 0 {
		t.Errorf("sync IQ window missing: %d chains", len(ev.SyncIQ))
	}
	if len(ev.ChanEst) != 52 {
		t.Errorf("channel estimate carries %d tones, want 52", len(ev.ChanEst))
	}
	for _, ce := range ev.ChanEst {
		if ce.CondDB < -1 || ce.CondDB > 150 {
			t.Errorf("tone %d condition = %g dB out of range", ce.Subcarrier, ce.CondDB)
		}
	}
	if len(ev.EVM) != 52 {
		t.Errorf("EVM table carries %d bins, want 52", len(ev.EVM))
	}
	if len(ev.Trace.Spans) == 0 || ev.Trace.OK {
		t.Errorf("embedded trace = %+v, want finished spans with ok=false", ev.Trace)
	}
	if ev.SoftBits.Count == 0 {
		t.Errorf("soft-bit stats empty: %+v", ev.SoftBits)
	}
}
