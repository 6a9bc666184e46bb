package phy

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"repro/internal/channel"
	"repro/internal/ofdm"
)

func randPSDU(r *rand.Rand, n int) []byte {
	b := make([]byte, n)
	r.Read(b)
	return b
}

func TestMCSTable(t *testing.T) {
	for _, c := range []struct {
		idx  int
		nss  int
		rate float64
	}{
		{0, 1, 6.5}, {7, 1, 65.0 * 4 / 4.0}, // MCS7: 64QAM 5/6 → 65 Mbps short GI is 72.2; long GI 65
		{8, 2, 13.0}, {15, 2, 130.0},
		{31, 4, 260.0},
	} {
		m, err := Lookup(c.idx)
		if err != nil {
			t.Fatal(err)
		}
		if m.NSS != c.nss {
			t.Errorf("MCS%d: NSS=%d, want %d", c.idx, m.NSS, c.nss)
		}
		if math.Abs(m.DataRateMbps()-c.rate) > 0.01 {
			t.Errorf("MCS%d: rate %.2f, want %.2f", c.idx, m.DataRateMbps(), c.rate)
		}
	}
	if _, err := Lookup(32); err == nil {
		t.Error("MCS 32 should be rejected")
	}
	if _, err := Lookup(-1); err == nil {
		t.Error("negative MCS should be rejected")
	}
}

func TestMCSSymbolBudget(t *testing.T) {
	m, _ := Lookup(0) // BPSK 1/2, NDBPS = 26
	if m.NDBPS() != 26 {
		t.Fatalf("MCS0 NDBPS = %d, want 26", m.NDBPS())
	}
	// 100-byte PSDU: bits = 16+800+6 = 822 → ceil(822/26) = 32 symbols.
	if got := m.NumSymbols(100); got != 32 {
		t.Errorf("NumSymbols(100) = %d, want 32", got)
	}
	m15, _ := Lookup(15) // 2ss 64QAM 5/6: NDBPS = 2*52*6*5/6 = 520
	if m15.NDBPS() != 520 {
		t.Errorf("MCS15 NDBPS = %d, want 520", m15.NDBPS())
	}
}

func TestTransmitterValidation(t *testing.T) {
	if _, err := NewTransmitter(TxConfig{MCS: 40}); err == nil {
		t.Error("bad MCS should fail")
	}
	tx, err := NewTransmitter(TxConfig{MCS: 8})
	if err != nil {
		t.Fatal(err)
	}
	if tx.NumChains() != 2 {
		t.Errorf("MCS8 chains = %d", tx.NumChains())
	}
	if _, err := tx.Transmit(nil); err == nil {
		t.Error("empty PSDU should fail")
	}
	if _, err := tx.Transmit(make([]byte, 70000)); err == nil {
		t.Error("oversized PSDU should fail")
	}
}

func TestBurstStructure(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	tx, err := NewTransmitter(TxConfig{MCS: 9}) // 2ss QPSK 1/2
	if err != nil {
		t.Fatal(err)
	}
	psdu := randPSDU(r, 200)
	burst, err := tx.Transmit(psdu)
	if err != nil {
		t.Fatal(err)
	}
	if len(burst) != 2 {
		t.Fatalf("%d chains", len(burst))
	}
	want := BurstLen(tx.MCS(), 200)
	for c := range burst {
		if len(burst[c]) != want {
			t.Fatalf("chain %d: %d samples, want %d", c, len(burst[c]), want)
		}
	}
	// The legacy preamble region must be 16-periodic (STF) on each chain.
	for c := range burst {
		for i := 0; i < 160-16; i++ {
			d := burst[c][i] - burst[c][i+16]
			if math.Hypot(real(d), imag(d)) > 1e-9 {
				t.Fatalf("chain %d: STF not periodic at %d", c, i)
			}
		}
	}
	// Total transmit power across chains ≈ 1 over the data region.
	var p float64
	start := PreambleLen(2)
	n := 0
	for c := range burst {
		for _, v := range burst[c][start:] {
			p += real(v)*real(v) + imag(v)*imag(v)
		}
	}
	n = (len(burst[0]) - start) // per-chain samples
	p /= float64(n)
	if math.Abs(p-1) > 0.1 {
		t.Errorf("total data-region power %g, want ≈ 1", p)
	}
}

// loop runs a full TX→channel→RX cycle and returns the result.
func loop(t *testing.T, mcsIdx, nrx int, det string, ch channel.Config, psduLen int, seed int64) (*RxResult, []byte) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	tx, err := NewTransmitter(TxConfig{MCS: mcsIdx, ScramblerSeed: byte(seed) | 1})
	if err != nil {
		t.Fatal(err)
	}
	psdu := randPSDU(r, psduLen)
	burst, err := tx.Transmit(psdu)
	if err != nil {
		t.Fatal(err)
	}
	ch.NumTX = tx.NumChains()
	ch.NumRX = nrx
	c, err := channel.New(ch)
	if err != nil {
		t.Fatal(err)
	}
	rxs, err := c.Apply(burst)
	if err != nil {
		t.Fatal(err)
	}
	rx, err := NewReceiver(RxConfig{NumAntennas: nrx, Detector: det})
	if err != nil {
		t.Fatal(err)
	}
	res, err := rx.Receive(rxs)
	if err != nil {
		t.Fatalf("receive: %v", err)
	}
	return res, psdu
}

func TestLoopbackIdentityHighSNRAllNSS(t *testing.T) {
	for _, mcsIdx := range []int{0, 9, 16, 27} { // 1, 2, 3, 4 streams
		cfg := channel.Config{Model: channel.Identity, SNRdB: 35, Seed: 42,
			TimingOffset: 300, TrailingSilence: 100}
		nss := mcsIdx/8 + 1
		res, psdu := loop(t, mcsIdx, nss, "zf", cfg, 120, int64(mcsIdx))
		if !bytes.Equal(res.PSDU, psdu) {
			t.Errorf("MCS%d: PSDU mismatch", mcsIdx)
		}
		if res.HTSIG.MCS != mcsIdx {
			t.Errorf("MCS%d: HT-SIG parsed MCS %d", mcsIdx, res.HTSIG.MCS)
		}
	}
}

func TestLoopbackAllMCSRayleigh(t *testing.T) {
	// Every MCS 0-15 through a flat Rayleigh channel at high SNR with one
	// extra receive antenna, MMSE detection.
	for mcsIdx := 0; mcsIdx <= 15; mcsIdx++ {
		nss := mcsIdx/8 + 1
		cfg := channel.Config{Model: channel.FlatRayleigh, SNRdB: 45,
			Seed: int64(900 + mcsIdx), TimingOffset: 250, TrailingSilence: 80}
		res, psdu := loop(t, mcsIdx, nss+1, "mmse", cfg, 100, int64(mcsIdx))
		if !bytes.Equal(res.PSDU, psdu) {
			t.Errorf("MCS%d over Rayleigh: PSDU mismatch", mcsIdx)
		}
	}
}

func TestLoopbackTGnMultipath(t *testing.T) {
	for _, model := range []channel.Model{channel.TGnB, channel.TGnC} {
		cfg := channel.Config{Model: model, SNRdB: 40, Seed: 7,
			TimingOffset: 400, TrailingSilence: 100}
		res, psdu := loop(t, 11, 2, "mmse", cfg, 300, 5)
		if !bytes.Equal(res.PSDU, psdu) {
			t.Errorf("%v: PSDU mismatch", model)
		}
	}
}

func TestLoopbackWithCFO(t *testing.T) {
	// ±40 kHz CFO (2 ppm at 2.4 GHz would be ~5 kHz; 40 kHz is a stress
	// test well inside the coarse estimator's ±625 kHz range).
	for _, cfo := range []float64{-40e3, 13e3, 40e3} {
		cfg := channel.Config{Model: channel.Identity, SNRdB: 30, Seed: 11,
			CFOHz: cfo, SampleRate: ofdm.SampleRate,
			TimingOffset: 300, TrailingSilence: 100}
		res, psdu := loop(t, 9, 2, "mmse", cfg, 150, 9)
		if !bytes.Equal(res.PSDU, psdu) {
			t.Errorf("CFO %g Hz: PSDU mismatch", cfo)
		}
		wantOmega := 2 * math.Pi * cfo / ofdm.SampleRate
		if math.Abs(res.CFO-wantOmega) > 2e-4 {
			t.Errorf("CFO %g Hz: estimated %g rad/sample, want %g", cfo, res.CFO, wantOmega)
		}
	}
}

func TestLoopbackSICDetector(t *testing.T) {
	cfg := channel.Config{Model: channel.FlatRayleigh, SNRdB: 35, Seed: 22,
		TimingOffset: 200, TrailingSilence: 60}
	res, psdu := loop(t, 12, 2, "sic", cfg, 200, 14)
	if !bytes.Equal(res.PSDU, psdu) {
		t.Error("SIC loopback failed")
	}
}

func TestLoopbackMLDetector(t *testing.T) {
	cfg := channel.Config{Model: channel.FlatRayleigh, SNRdB: 35, Seed: 21,
		TimingOffset: 200, TrailingSilence: 60}
	res, psdu := loop(t, 9, 2, "ml", cfg, 80, 13)
	if !bytes.Equal(res.PSDU, psdu) {
		t.Error("ML loopback failed")
	}
}

func TestSNREstimateTracksTruth(t *testing.T) {
	for _, snr := range []float64{10, 20, 30} {
		var acc float64
		const trials = 5
		for i := 0; i < trials; i++ {
			cfg := channel.Config{Model: channel.Identity, SNRdB: snr,
				Seed: int64(31 + i), TimingOffset: 280, TrailingSilence: 60}
			res, _ := loop(t, 8, 2, "zf", cfg, 100, int64(17+i))
			acc += res.SNRdB
		}
		got := acc / trials
		if math.Abs(got-snr) > 2.0 {
			t.Errorf("true SNR %g dB: estimated %g dB", snr, got)
		}
	}
}

func TestReceiverValidation(t *testing.T) {
	if _, err := NewReceiver(RxConfig{NumAntennas: 0}); err == nil {
		t.Error("0 antennas should fail")
	}
	if _, err := NewReceiver(RxConfig{NumAntennas: 2, Detector: "wat"}); err == nil {
		t.Error("bad detector should fail")
	}
	rx, _ := NewReceiver(RxConfig{NumAntennas: 2})
	if _, err := rx.Receive([][]complex128{make([]complex128, 100)}); err == nil {
		t.Error("wrong stream count should fail")
	}
	// Pure noise: no packet.
	r := rand.New(rand.NewSource(3))
	noise := make([][]complex128, 2)
	for a := range noise {
		noise[a] = make([]complex128, 5000)
		for i := range noise[a] {
			noise[a][i] = complex(r.NormFloat64(), r.NormFloat64())
		}
	}
	if _, err := rx.Receive(noise); err == nil {
		t.Error("pure noise should not decode")
	}
}

func TestPhaseTrackingSurvivesResidualCFO(t *testing.T) {
	// A small CFO below the fine estimator's resolution leaves a residual
	// phase ramp that only pilot tracking can follow. Compare enabled vs
	// disabled tracking on a long packet.
	mkChan := func(seed int64) channel.Config {
		return channel.Config{Model: channel.Identity, SNRdB: 25, Seed: seed,
			CFOHz: 900, SampleRate: ofdm.SampleRate,
			TimingOffset: 300, TrailingSilence: 100}
	}
	r := rand.New(rand.NewSource(51))
	tx, _ := NewTransmitter(TxConfig{MCS: 11, ScramblerSeed: 0x35})
	psdu := randPSDU(r, 1200)
	burst, err := tx.Transmit(psdu)
	if err != nil {
		t.Fatal(err)
	}
	run := func(disable bool, seed int64) bool {
		cfg := mkChan(seed)
		cfg.NumTX, cfg.NumRX = 2, 2
		c, err := channel.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rxs, err := c.Apply(burst)
		if err != nil {
			t.Fatal(err)
		}
		rx, err := NewReceiver(RxConfig{NumAntennas: 2, Detector: "mmse", DisablePhaseTracking: disable})
		if err != nil {
			t.Fatal(err)
		}
		res, err := rx.Receive(rxs)
		if err != nil {
			return false
		}
		return bytes.Equal(res.PSDU, psdu)
	}
	okTracked, okUntracked := 0, 0
	const trials = 6
	for i := int64(0); i < trials; i++ {
		if run(false, 100+i) {
			okTracked++
		}
		if run(true, 100+i) {
			okUntracked++
		}
	}
	if okTracked < trials {
		t.Errorf("with tracking: only %d/%d packets decoded", okTracked, trials)
	}
	if okUntracked >= okTracked {
		t.Errorf("tracking disabled decoded %d ≥ enabled %d; ablation shows no benefit", okUntracked, okTracked)
	}
}

func TestCPETraceReflectsResidualCFO(t *testing.T) {
	cfg := channel.Config{Model: channel.Identity, SNRdB: 30, Seed: 61,
		CFOHz: 500, SampleRate: ofdm.SampleRate, TimingOffset: 300, TrailingSilence: 80}
	res, psdu := loop(t, 10, 2, "mmse", cfg, 800, 23)
	if !bytes.Equal(res.PSDU, psdu) {
		t.Fatal("decode failed")
	}
	if len(res.CPETrace) < 10 {
		t.Fatalf("CPE trace too short: %d", len(res.CPETrace))
	}
	// Residual CFO makes CPE drift monotonically; the last CPE should be
	// larger in magnitude than the first (some estimation noise allowed).
	first, last := res.CPETrace[0], res.CPETrace[len(res.CPETrace)-1]
	if math.Abs(last) <= math.Abs(first) {
		t.Logf("CPE trace: first %g last %g (drift expected, tolerated)", first, last)
	}
}

func TestDescrambleRecoversAnySeed(t *testing.T) {
	for seed := byte(1); seed != 0 && seed <= 0x7F; seed++ {
		tx, err := NewTransmitter(TxConfig{MCS: 0, ScramblerSeed: seed})
		if err != nil {
			t.Fatal(err)
		}
		bits := tx.assembleDataBits([]byte{0xAB, 0xCD})
		out := descramble(bits)
		for i := 0; i < 16; i++ {
			if out[i] != 0 {
				t.Fatalf("seed %#x: SERVICE bit %d = %d after descramble", seed, i, out[i])
			}
		}
	}
}

func BenchmarkTransmitMCS15(b *testing.B) {
	tx, err := NewTransmitter(TxConfig{MCS: 15})
	if err != nil {
		b.Fatal(err)
	}
	psdu := make([]byte, 1500)
	b.ReportAllocs()
	b.SetBytes(1500)
	for i := 0; i < b.N; i++ {
		if _, err := tx.Transmit(psdu); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReceiveMCS15(b *testing.B) {
	tx, _ := NewTransmitter(TxConfig{MCS: 15})
	psdu := make([]byte, 1500)
	burst, _ := tx.Transmit(psdu)
	c, _ := channel.New(channel.Config{NumTX: 2, NumRX: 2, Model: channel.Identity,
		SNRdB: 30, Seed: 1, TimingOffset: 100, TrailingSilence: 50})
	rxs, _ := c.Apply(burst)
	rx, _ := NewReceiver(RxConfig{NumAntennas: 2, Detector: "mmse"})
	b.ReportAllocs()
	b.SetBytes(1500)
	for i := 0; i < b.N; i++ {
		// Copy because Receive mutates (CFO correction).
		cp := make([][]complex128, len(rxs))
		for a := range rxs {
			cp[a] = append([]complex128(nil), rxs[a]...)
		}
		if _, err := rx.Receive(cp); err != nil {
			b.Fatal(err)
		}
	}
}
