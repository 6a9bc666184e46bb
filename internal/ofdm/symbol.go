package ofdm

import (
	"fmt"
	"math"

	"repro/internal/dsp"
)

// fftPlan is the package-shared 64-point transform. A dsp.FFT plan is
// immutable after construction and safe for concurrent use, so every
// modulator and demodulator references this single twiddle/bit-reversal
// cache instead of rebuilding it per instance — the batched receive path
// creates one demodulator per worker and they all share these tables.
var fftPlan = dsp.MustFFT(FFTSize)

// Modulator assembles time-domain OFDM symbols from data and pilot
// subcarrier values. It owns an FFT plan and scratch buffers and is not safe
// for concurrent use; create one per transmit chain.
type Modulator struct {
	tones *ToneMap
	fft   *dsp.FFT
	freq  []complex128
	scale complex128
}

// NewModulator returns a modulator over the given tone map. The output is
// scaled by N_FFT/√N_used so one OFDM symbol of unit-power constellation
// points has unit average sample power, matching the normalization in the
// standard's transmit equations.
func NewModulator(tones *ToneMap) *Modulator {
	return &Modulator{
		tones: tones,
		fft:   fftPlan,
		freq:  make([]complex128, FFTSize),
		scale: complex(float64(FFTSize)/math.Sqrt(float64(tones.NumUsed()))/float64(FFTSize), 0),
	}
}

// Tones returns the modulator's tone map.
func (m *Modulator) Tones() *ToneMap { return m.tones }

// Symbol writes one 80-sample long-GI OFDM symbol (CP + 64 samples) into
// dst. data must have NumData elements and pilots NumPilots elements.
func (m *Modulator) Symbol(dst []complex128, data, pilots []complex128) error {
	return m.SymbolCP(dst, data, pilots, CPLen)
}

// SymbolCP is Symbol with an explicit guard-interval length (16 for the
// 800 ns long GI, 8 for the 400 ns short GI). dst must have 64+cpLen
// samples.
func (m *Modulator) SymbolCP(dst []complex128, data, pilots []complex128, cpLen int) error {
	if cpLen < 1 || cpLen > FFTSize {
		return fmt.Errorf("ofdm: guard length %d outside [1, %d]", cpLen, FFTSize)
	}
	if len(dst) != FFTSize+cpLen {
		return fmt.Errorf("ofdm: dst length %d, want %d", len(dst), FFTSize+cpLen)
	}
	if len(data) != m.tones.NumData() {
		return fmt.Errorf("ofdm: %d data symbols, want %d", len(data), m.tones.NumData())
	}
	if len(pilots) != NumPilots {
		return fmt.Errorf("ofdm: %d pilots, want %d", len(pilots), NumPilots)
	}
	for i := range m.freq {
		m.freq[i] = 0
	}
	for i, b := range m.tones.Data {
		m.freq[b] = data[i]
	}
	for i, b := range m.tones.Pilot {
		m.freq[b] = pilots[i]
	}
	return m.symbolFromFreq(dst, cpLen)
}

// SymbolFromBins writes one OFDM symbol built from a caller-provided
// complete 64-bin frequency-domain vector (used for preamble fields whose
// occupied set differs from the data tone map).
func (m *Modulator) SymbolFromBins(dst, bins []complex128) error {
	if len(dst) != SymbolLen {
		return fmt.Errorf("ofdm: dst length %d, want %d", len(dst), SymbolLen)
	}
	if len(bins) != FFTSize {
		return fmt.Errorf("ofdm: bins length %d, want %d", len(bins), FFTSize)
	}
	copy(m.freq, bins)
	return m.symbolFromFreq(dst, CPLen)
}

func (m *Modulator) symbolFromFreq(dst []complex128, cpLen int) error {
	body := dst[cpLen:]
	m.fft.Inverse(body, m.freq)
	// Undo the plan's 1/N and apply the unit-power normalization in one
	// factor (scale already folds both).
	for i := range body {
		body[i] *= m.scale * complex(float64(FFTSize), 0)
	}
	copy(dst[:cpLen], body[FFTSize-cpLen:])
	return nil
}

// Demodulator recovers subcarrier values from received OFDM symbols.
// Not safe for concurrent use.
type Demodulator struct {
	tones *ToneMap
	fft   *dsp.FFT
	freq  []complex128
	scale complex128
}

// NewDemodulator returns a demodulator matching NewModulator's scaling, so a
// loopback through Modulator→Demodulator is exactly the identity.
func NewDemodulator(tones *ToneMap) *Demodulator {
	return &Demodulator{
		tones: tones,
		fft:   fftPlan,
		freq:  make([]complex128, FFTSize),
		scale: complex(math.Sqrt(float64(tones.NumUsed()))/float64(FFTSize), 0),
	}
}

// Symbol demodulates one symbol. sym must contain the 64 samples of the
// useful part (CP already removed — timing recovery owns that decision).
// It appends the data subcarrier values to data and the pilot values to
// pilots, returning the extended slices.
func (d *Demodulator) Symbol(sym []complex128, data, pilots []complex128) (dataOut, pilotsOut []complex128, err error) {
	if len(sym) != FFTSize {
		return data, pilots, fmt.Errorf("ofdm: symbol length %d, want %d", len(sym), FFTSize)
	}
	d.fft.Forward(d.freq, sym)
	// Only the used tones are scaled; the guard and DC bins are dropped.
	for _, b := range d.tones.Data {
		data = append(data, d.freq[b]*d.scale)
	}
	for _, b := range d.tones.Pilot {
		pilots = append(pilots, d.freq[b]*d.scale)
	}
	return data, pilots, nil
}

// SymbolTo demodulates one 64-sample symbol writing the data subcarrier
// values into data[:NumData] and the pilot values into pilots[:NumPilots],
// with arithmetic identical to Symbol. It is the fixed-layout form the
// batched receive path uses to land tones directly in a packet-wide block
// without append bookkeeping.
//
//mimonet:hot
func (d *Demodulator) SymbolTo(data, pilots, sym []complex128) error {
	if len(sym) != FFTSize {
		return fmt.Errorf("ofdm: symbol length %d, want %d", len(sym), FFTSize)
	}
	if len(data) < len(d.tones.Data) || len(pilots) < len(d.tones.Pilot) {
		return fmt.Errorf("ofdm: SymbolTo dst lengths %d/%d, want %d/%d",
			len(data), len(pilots), len(d.tones.Data), len(d.tones.Pilot))
	}
	d.fft.Forward(d.freq, sym)
	for i, b := range d.tones.Data {
		data[i] = d.freq[b] * d.scale
	}
	for i, b := range d.tones.Pilot {
		pilots[i] = d.freq[b] * d.scale
	}
	return nil
}

// Bins demodulates one 64-sample symbol into the full bin vector (scaled
// like Symbol), for channel estimation over preamble fields.
func (d *Demodulator) Bins(dst, sym []complex128) error {
	if len(sym) != FFTSize || len(dst) != FFTSize {
		return fmt.Errorf("ofdm: Bins wants 64-sample slices")
	}
	d.fft.Forward(dst, sym)
	for i := range dst {
		dst[i] *= d.scale
	}
	return nil
}
