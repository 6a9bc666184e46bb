package sim

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/channel"
	"repro/internal/mac"
	"repro/internal/metrics"
	"repro/internal/ofdm"
	"repro/internal/phy"
	"repro/internal/radio"
)

func init() {
	register("e11", E11NetworkedLink)
	register("e12", E12PipelineThroughput)
}

// E11NetworkedLink exercises the complete MIMONet platform path: the
// transmitter's burst crosses the simulated radio channel, the resulting IQ
// streams are shipped over a real UDP socket (the host↔front-end link), and
// the receiver decodes on the far side. Reported per configured SNR:
// decode PER, the receiver's SNR estimate, and datagram loss.
func E11NetworkedLink(opt Options) (*Table, error) {
	t := &Table{
		ID:      "E11",
		Title:   "End-to-end networked link: TX → TGn-B → UDP IQ transport → RX (MCS11)",
		Columns: []string{"snr_db", "per", "mean_est_snr_db", "datagrams_lost"},
	}
	snrs := []float64{10, 15, 20, 25, 30}
	packets := opt.Packets / 10
	if packets < 3 {
		packets = 3
	}
	if opt.Quick {
		snrs = []float64{15, 25}
		packets = 3
	}
	r := rand.New(rand.NewSource(opt.Seed + 11))
	for _, snrDB := range snrs {
		per, meanSNR, lost, err := runNetworkedPoint(r, snrDB, packets, opt.PayloadLen, opt.Seed)
		if err != nil {
			return nil, err
		}
		if err := t.AddRow(snrDB, per.Rate(), meanSNR, float64(lost)); err != nil {
			return nil, err
		}
	}
	t.Notes = append(t.Notes,
		"IQ samples cross a real loopback UDP socket in the radio framing (float32 I/Q, sequence numbered)",
		"expected: estimated SNR tracks configured SNR; PER falls with SNR as in E5")
	return t, nil
}

func runNetworkedPoint(r *rand.Rand, snrDB float64, packets, payloadLen int, seed int64) (*metrics.PER, float64, uint64, error) {
	rxSock, err := radio.NewUDPReceiver("127.0.0.1:0")
	if err != nil {
		return nil, 0, 0, err
	}
	defer rxSock.Close()
	txSock, err := radio.NewUDPSender(rxSock.Addr().String(), 2)
	if err != nil {
		return nil, 0, 0, err
	}
	defer txSock.Close()

	tx, err := phy.NewTransmitter(phy.TxConfig{MCS: 11, ScramblerSeed: 0x2B})
	if err != nil {
		return nil, 0, 0, err
	}
	ch, err := channel.New(channel.Config{NumTX: 2, NumRX: 2, Model: channel.TGnB,
		SNRdB: snrDB, Seed: seed + int64(snrDB), TimingOffset: 250, TrailingSilence: 100})
	if err != nil {
		return nil, 0, 0, err
	}
	var per metrics.PER
	var snrAcc float64
	snrCount := 0
	for p := 0; p < packets; p++ {
		payload := make([]byte, payloadLen)
		r.Read(payload)
		frame := &mac.Frame{Seq: uint16(p & 0xFFF), Payload: payload}
		psdu, err := frame.Encode()
		if err != nil {
			return nil, 0, 0, err
		}
		burst, err := tx.Transmit(psdu)
		if err != nil {
			return nil, 0, 0, err
		}
		faded, err := ch.Apply(burst)
		if err != nil {
			return nil, 0, 0, err
		}
		// Ship the IQ streams across the UDP socket, concurrently with the
		// read (datagram buffers are small).
		sendErr := make(chan error, 1)
		go func() { sendErr <- txSock.WriteBurst(faded) }()
		got, err := rxSock.ReadBurst(5 * time.Second)
		if err != nil {
			return nil, 0, 0, err
		}
		if err := <-sendErr; err != nil {
			return nil, 0, 0, err
		}
		rcv, err := phy.NewReceiver(phy.RxConfig{NumAntennas: 2, Detector: "mmse"})
		if err != nil {
			return nil, 0, 0, err
		}
		res, rxErr := rcv.Receive(got)
		ok := false
		if rxErr == nil {
			if decoded, derr := mac.Decode(res.PSDU); derr == nil {
				ok = decoded.Seq == frame.Seq && string(decoded.Payload) == string(payload)
			}
		}
		if res != nil {
			snrAcc += res.SNRdB
			snrCount++
		}
		per.Add(ok)
	}
	meanSNR := 0.0
	if snrCount > 0 {
		meanSNR = snrAcc / float64(snrCount)
	}
	return &per, meanSNR, rxSock.Lost, nil
}

// E12PipelineThroughput measures the software pipeline rates of the major
// stages in megasamples (or megabits) per second — the SDR-feasibility
// numbers the paper reports for its GNU Radio implementation.
func E12PipelineThroughput(opt Options) (*Table, error) {
	t := &Table{
		ID:      "E12",
		Title:   "Software pipeline throughput (single core)",
		Columns: []string{"stage_id", "msamples_per_s", "x_realtime_20mhz"},
	}
	iterations := 60
	if opt.Quick {
		iterations = 6
	}
	payload := 1500

	// Stage 1: full transmit chain, MCS15.
	tx, err := phy.NewTransmitter(phy.TxConfig{MCS: 15})
	if err != nil {
		return nil, err
	}
	psdu := make([]byte, payload)
	burstLen := phy.BurstLen(tx.MCS(), payload)
	start := wallClock.Now()
	for i := 0; i < iterations; i++ {
		if _, err := tx.Transmit(psdu); err != nil {
			return nil, err
		}
	}
	txRate := float64(iterations) * float64(burstLen) / wallClock.Since(start).Seconds() / 1e6

	// Stage 2: full receive chain, MCS15 over a clean channel.
	burst, err := tx.Transmit(psdu)
	if err != nil {
		return nil, err
	}
	ch, err := channel.New(channel.Config{NumTX: 2, NumRX: 2, Model: channel.Identity,
		SNRdB: 30, Seed: 12, TimingOffset: 100, TrailingSilence: 50})
	if err != nil {
		return nil, err
	}
	rxs, err := ch.Apply(burst)
	if err != nil {
		return nil, err
	}
	rcv, err := phy.NewReceiver(phy.RxConfig{NumAntennas: 2, Detector: "mmse"})
	if err != nil {
		return nil, err
	}
	start = wallClock.Now()
	for i := 0; i < iterations; i++ {
		cp := make([][]complex128, len(rxs))
		for a := range rxs {
			cp[a] = append([]complex128(nil), rxs[a]...)
		}
		if _, err := rcv.Receive(cp); err != nil {
			return nil, err
		}
	}
	rxRate := float64(iterations) * float64(len(rxs[0])) / wallClock.Since(start).Seconds() / 1e6

	// Stage 3: channel simulator.
	start = wallClock.Now()
	for i := 0; i < iterations; i++ {
		if _, err := ch.Apply(burst); err != nil {
			return nil, err
		}
	}
	chRate := float64(iterations) * float64(burstLen) / wallClock.Since(start).Seconds() / 1e6

	rows := []struct {
		id   float64
		rate float64
	}{
		{1, txRate}, {2, rxRate}, {3, chRate},
	}
	for _, row := range rows {
		if err := t.AddRow(row.id, row.rate, row.rate/(ofdm.SampleRate/1e6)); err != nil {
			return nil, err
		}
	}
	t.Notes = append(t.Notes,
		"stage 1 = TX chain (MCS15), stage 2 = RX chain incl. sync+MMSE+Viterbi, stage 3 = channel simulator",
		fmt.Sprintf("x_realtime > 1 means the stage outruns the %g MHz sample clock", ofdm.SampleRate/1e6),
		"expected: TX several times faster than RX (Viterbi+detection dominate); this heavy MCS15 2x2 per-stream configuration stays below 20 MHz real time single-core, matching the paper's non-real-time GNU Radio operation; no configuration decodes in real time yet: E24/BenchmarkRealtime's lighter MCS0 1x4 chain runs at ≈0.3–0.4x real time per 4-chain front end, and CI gates it at 0.25x")
	return t, nil
}
