package main

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"time"

	"repro/internal/channel"
	"repro/internal/mac"
	"repro/internal/obs"
	"repro/internal/phy"
)

// Radio conditions shared by every receive workload.
const (
	snrDB        = 30
	sampleRateHz = 20e6
	leadSamples  = 100 // noise before each burst, so sync has to search
	tailSamples  = 50
)

// errWrongFrame marks a frame that passed its FCS but is not the one sent:
// a wrong output, not a lost one.
var errWrongFrame = errors.New("decoded frame differs from the one sent")

// checkFrame verifies a decoded PSDU against the frame that was sent.
func checkFrame(psdu []byte, seq uint16, payload []byte) error {
	f, err := mac.Decode(psdu)
	if err != nil {
		return err
	}
	return frameMatches(f, seq, payload)
}

func frameMatches(f *mac.Frame, seq uint16, payload []byte) error {
	if f.Seq != seq || !bytes.Equal(f.Payload, payload) {
		return errWrongFrame
	}
	return nil
}

// encodeTx frames a payload and transmits it, sampling the transmit time.
// With allocs set it also counts the transmitter's heap allocations, which
// is exact only while no other goroutine allocates.
func encodeTx(tx *phy.Transmitter, payload []byte, seq uint16, st *tally, allocs bool) ([][]complex128, error) {
	psdu, err := (&mac.Frame{Seq: seq, Payload: payload}).Encode()
	if err != nil {
		return nil, err
	}
	var m0, m1 runtime.MemStats
	if allocs {
		runtime.ReadMemStats(&m0)
	}
	t0 := wall.Now()
	burst, err := tx.Transmit(psdu)
	st.sample("phy.tx_ms", ms(wall.Since(t0)))
	if allocs {
		runtime.ReadMemStats(&m1)
		st.sample("phy.tx_allocs", float64(m1.Mallocs-m0.Mallocs))
	}
	return burst, err
}

// airtime is the on-air duration of one PPDU at the 20 MHz sample rate,
// counted once per front end however many chains receive it.
func airtime(mcs, psduLen int) time.Duration {
	m, _ := phy.Lookup(mcs)
	return time.Duration(float64(phy.BurstLen(m, psduLen)) / sampleRateHz * float64(time.Second))
}

// rxSpec is a closed-loop receive workload: one receiver pinned to one
// worker decodes a seeded pool of received bursts back to back.
type rxSpec struct {
	mcs      int
	antennas int
	detector string
}

const (
	rxPoolSize = 16
	rxPSDULen  = 1500
)

type rxBurst struct {
	samples [][]complex128
	seq     uint16
	payload []byte
}

type rxHarness struct {
	spec rxSpec
	pool []rxBurst
	in   [][]complex128 // the copy Receive is handed
	rcv  *phy.Receiver
	// traced is a second receiver with the stage tracer attached, built on
	// the first traced phase so the untraced one never carries telemetry.
	traced  *phy.Receiver
	tracer  *obs.Tracer
	spans   *spanLog
	airtime time.Duration
	next    int
}

// drawer deals the workload's inputs: one MCS, full-size frames.
func (spec rxSpec) drawer(seed int64) *drawer {
	return newDrawer(seed, []int{spec.mcs}, []int{rxPSDULen})
}

func (spec rxSpec) receiver() (*phy.Receiver, error) {
	return phy.NewReceiver(phy.RxConfig{NumAntennas: spec.antennas, Detector: spec.detector, Workers: 1})
}

func (spec rxSpec) setup(seed int64, spans *spanLog, st *tally) (harness, error) {
	tx, err := phy.NewTransmitter(phy.TxConfig{MCS: spec.mcs})
	if err != nil {
		return nil, err
	}
	rcv, err := spec.receiver()
	if err != nil {
		return nil, err
	}
	h := &rxHarness{spec: spec, rcv: rcv, spans: spans, airtime: airtime(spec.mcs, rxPSDULen),
		in: make([][]complex128, spec.antennas)}
	d := spec.drawer(seed)
	for tries := 0; len(h.pool) < rxPoolSize; tries++ {
		if tries == 4*rxPoolSize {
			return nil, fmt.Errorf("only %d of %d bursts decodable", len(h.pool), rxPoolSize)
		}
		in := d.next()
		seq := uint16(len(h.pool))
		burst, err := encodeTx(tx, in.Payload, seq, st, true)
		if err != nil {
			return nil, err
		}
		ch, err := channel.New(channel.Config{NumTX: len(burst), NumRX: spec.antennas,
			Model: channel.TGnB, SNRdB: snrDB, Seed: in.ChanSeed,
			TimingOffset: leadSamples, TrailingSilence: tailSamples})
		if err != nil {
			return nil, err
		}
		t0 := wall.Now()
		samples, err := ch.Apply(burst)
		if err != nil {
			return nil, err
		}
		st.sample("channel.apply_ms", ms(wall.Since(t0)))
		b := rxBurst{samples: samples, seq: seq, payload: in.Payload}
		// A burst joins the pool only if the receiver decodes it: the
		// workload times decoding, and a burst lost to a deep fade would
		// fail on every pass.
		if h.decode(rcv, &b) == nil {
			h.pool = append(h.pool, b)
		}
	}
	return h, nil
}

// input copies a burst into the receiver's input. Receive rewrites its
// input during CFO correction, so every decode gets a fresh copy.
func (h *rxHarness) input(b *rxBurst) [][]complex128 {
	for a := range h.in {
		h.in[a] = append(h.in[a][:0], b.samples[a]...)
	}
	return h.in
}

// decode runs one burst through the receiver and the MAC check.
func (h *rxHarness) decode(rcv *phy.Receiver, b *rxBurst) error {
	res, err := rcv.Receive(h.input(b))
	if err != nil {
		return err
	}
	return checkFrame(res.PSDU, b.seq, b.payload)
}

func (h *rxHarness) run(d time.Duration, traced bool, t *tally) error {
	rcv := h.rcv
	if traced {
		if h.traced == nil {
			r, err := h.spec.receiver()
			if err != nil {
				return err
			}
			h.tracer = obs.NewTracer(4, nil)
			r.SetObs(phy.NewRxObs(nil, h.tracer))
			h.traced = r
		}
		rcv = h.traced
	}
	start := wall.Now()
	for end := start.Add(d); wall.Now().Before(end); {
		b := &h.pool[h.next%len(h.pool)]
		h.next++
		req := uint64(h.next)
		in := h.input(b)
		t0 := wall.Now()
		res, err := rcv.Receive(in)
		t1 := wall.Now()
		if err == nil {
			err = checkFrame(res.PSDU, b.seq, b.payload)
		}
		t2 := wall.Now()
		if errors.Is(err, errWrongFrame) {
			t.mismatch()
		}
		t.outcome(err == nil, t2, len(b.payload))
		if err != nil {
			continue
		}
		t.op("", t2.Sub(t0))
		t.sample("phy.decode_ms", ms(t2.Sub(t0)))
		t.sample("phy.realtime", float64(h.airtime)/float64(t2.Sub(t0)))
		if traced {
			t.sample("phy.receive_ms", ms(t1.Sub(t0)))
			t.sample("mac.self_ms", ms(t2.Sub(t1)))
			id := h.spans.add(0, "Receive", req, t0, t1)
			foldStages(h.spans, t, id, req, h.tracer.Active().Snapshot())
			h.spans.add(0, "mac.Decode", req, t1, t2)
		}
	}
	return nil
}

func (h *rxHarness) close() {}
