// Package synchro implements the preamble-driven frame synchronization of
// the MIMONet receiver: Schmidl & Cox style packet detection on the periodic
// L-STF, coarse and fine carrier-frequency-offset estimation from the STF
// and LTF periodicities, and fine timing by cross-correlation against the
// known L-LTF symbol. All estimators accept multiple receive streams and
// combine them, consistent with the paper's MIMO extension of
// synchronization (see package vandebeek for the CP-based variant).
package synchro

import (
	"fmt"
	"math"
	"math/cmplx"

	"repro/internal/dsp"
	"repro/internal/ofdm"
	"repro/internal/preamble"
)

// DetectorConfig tunes the packet detector.
type DetectorConfig struct {
	// Threshold on the normalized metric |γ|/Φ ∈ [0, 1]. Typical 0.6-0.8.
	Threshold float64
	// Plateau is how many consecutive samples must exceed Threshold before
	// a detection fires; guards against impulsive noise. Typical 16-48.
	Plateau int
	// MinPower discards windows whose average sample power is below this,
	// preventing detections on idle-channel noise correlations. 0 disables.
	MinPower float64
}

// DefaultDetectorConfig returns the configuration used throughout the
// benchmarks: threshold 0.7, plateau 24 samples.
func DefaultDetectorConfig() DetectorConfig {
	return DetectorConfig{Threshold: 0.7, Plateau: 24, MinPower: 1e-6}
}

// Detection reports a packet detection.
type Detection struct {
	// Index is the sample index at which the plateau completed. The STF
	// start precedes it by roughly Plateau + window samples; fine timing
	// against the LTF refines this.
	Index int
	// Metric is the normalized autocorrelation at the detection point.
	Metric float64
}

// Detector is a streaming packet detector over one or more receive antennas.
// Feed samples with Push; it reports a Detection when the combined STF
// metric exceeds the threshold for Plateau consecutive samples. Not safe for
// concurrent use.
type Detector struct {
	cfg   DetectorConfig
	acs   []*dsp.AutoCorrelator
	run   int
	count int
	armed bool
}

// NewDetector returns a detector over nrx receive streams.
func NewDetector(nrx int, cfg DetectorConfig) (*Detector, error) {
	if nrx < 1 {
		return nil, fmt.Errorf("synchro: need at least one receive stream")
	}
	if cfg.Threshold <= 0 || cfg.Threshold >= 1 {
		return nil, fmt.Errorf("synchro: threshold %g outside (0, 1)", cfg.Threshold)
	}
	if cfg.Plateau < 1 {
		return nil, fmt.Errorf("synchro: plateau %d < 1", cfg.Plateau)
	}
	d := &Detector{cfg: cfg, armed: true}
	for i := 0; i < nrx; i++ {
		// Lag 16 = STF period; window 32 averages two periods.
		d.acs = append(d.acs, dsp.NewAutoCorrelator(16, 32))
	}
	return d, nil
}

// Reset re-arms the detector and clears all correlator state.
func (d *Detector) Reset() {
	for _, ac := range d.acs {
		ac.Reset()
	}
	d.run, d.count = 0, 0
	d.armed = true
}

// Push feeds one sample per antenna. It returns a non-nil Detection on the
// sample that completes the plateau; the detector then disarms until Reset.
func (d *Detector) Push(samples []complex128) (*Detection, error) {
	if len(samples) != len(d.acs) {
		return nil, fmt.Errorf("synchro: %d samples for %d antennas", len(samples), len(d.acs))
	}
	var corr complex128
	var power float64
	for i, ac := range d.acs {
		c, p := ac.Push(samples[i])
		corr += c
		power += p
	}
	d.count++
	if !d.armed || !d.acs[0].Primed() {
		return nil, nil
	}
	metric := 0.0
	if power > 0 {
		metric = cmplx.Abs(corr) / power
	}
	if metric >= d.cfg.Threshold && power/float64(len(d.acs)*32) >= d.cfg.MinPower {
		d.run++
		if d.run >= d.cfg.Plateau {
			d.armed = false
			return &Detection{Index: d.count - 1, Metric: metric}, nil
		}
	} else {
		d.run = 0
	}
	return nil, nil
}

// CoarseCFO estimates the carrier frequency offset from the 16-sample
// periodicity of the STF, combining all receive streams. rx must contain at
// least 32 STF samples per stream. The result is in radians per sample;
// multiply by SampleRate/2π for Hz. The unambiguous range is ±π/16 rad/sample
// (±625 kHz at 20 MHz).
func CoarseCFO(rx [][]complex128) (float64, error) {
	return lagCFO(rx, 16)
}

// FineCFO estimates the CFO from the 64-sample periodicity of the two L-LTF
// long symbols. rx must contain at least 128 samples per stream, aligned to
// the start of the first long symbol (after the LTF guard). Range
// ±π/64 rad/sample (±156 kHz at 20 MHz).
func FineCFO(rx [][]complex128) (float64, error) {
	return lagCFO(rx, 64)
}

func lagCFO(rx [][]complex128, lag int) (float64, error) {
	if len(rx) == 0 {
		return 0, fmt.Errorf("synchro: no receive streams")
	}
	var acc complex128
	for i, r := range rx {
		if len(r) < 2*lag {
			return 0, fmt.Errorf("synchro: stream %d has %d samples, need %d", i, len(r), 2*lag)
		}
		n := len(r) - lag
		for k := 0; k < n; k++ {
			acc += r[k] * cmplx.Conj(r[k+lag])
		}
	}
	if acc == 0 {
		return 0, fmt.Errorf("synchro: zero correlation, cannot estimate CFO")
	}
	// r[k]·r*[k+lag] carries phase −ω·lag for a rotation of ω rad/sample.
	return -cmplx.Phase(acc) / float64(lag), nil
}

// CorrectCFO derotates every stream in place by the given offset (radians
// per sample), starting from phase 0 at index 0. Streams may differ in
// length.
//
// The phasor recurrence rot *= step is serial, so its latency bounds the
// loop; it runs once per sample index and the phasor is applied to every
// stream in the same pass. Each stream sees the same product chain as a
// per-stream dsp.Rotate, so the output is bit-identical to it.
func CorrectCFO(rx [][]complex128, omega float64) {
	CorrectCFOPrefix(rx, omega, math.MaxInt)
}

// CorrectCFOPrefix is CorrectCFO on samples [0, end) of every stream; the
// samples from end on are left as they are.
//
// A receiver that derotates twice, coarse then fine, needs the coarse
// correction only where its fine estimators read, before the fine offset is
// known. FinishCFO then completes both corrections in one pass.
//
//mimonet:hot
func CorrectCFOPrefix(rx [][]complex128, omega float64, end int) {
	n := 0
	for _, r := range rx {
		n = max(n, min(len(r), end))
	}
	rot := cmplx.Exp(0)
	step := cmplx.Exp(complex(0, -omega))
	for i := 0; i < n; i++ {
		for _, r := range rx {
			if i < len(r) {
				r[i] *= rot
			}
		}
		rot *= step
	}
}

// FinishCFO completes the correction CorrectCFOPrefix(rx, coarse, end)
// began. It derotates samples [0, end) by fine and the rest by coarse, then
// fine, so every stream ends as CorrectCFO(rx, coarse) followed by
// CorrectCFO(rx, fine) would leave it, bit for bit: each sample gets the
// same two products in the same order, and both phasor recurrences advance
// once per index from phase 0, as in the two full passes.
//
//mimonet:hot
func FinishCFO(rx [][]complex128, coarse, fine float64, end int) {
	n := 0
	for _, r := range rx {
		n = max(n, len(r))
	}
	rotC, rotF := cmplx.Exp(0), cmplx.Exp(0)
	stepC, stepF := cmplx.Exp(complex(0, -coarse)), cmplx.Exp(complex(0, -fine))
	i := 0
	for ; i < min(n, end); i++ {
		for _, r := range rx {
			if i < len(r) {
				r[i] *= rotF
			}
		}
		rotC *= stepC
		rotF *= stepF
	}
	for ; i < n; i++ {
		for _, r := range rx {
			if i < len(r) {
				r[i] = r[i] * rotC * rotF
			}
		}
		rotC *= stepC
		rotF *= stepF
	}
}

// FineTiming locates the start of the L-LTF by cross-correlating against the
// known 64-sample long-training symbol, combining magnitudes across receive
// streams, and returns the index in rx of the first sample of the first
// long symbol (i.e. LTF guard end). searchFrom/searchTo bound the window.
func FineTiming(rx [][]complex128, searchFrom, searchTo int) (int, error) {
	if len(rx) == 0 {
		return 0, fmt.Errorf("synchro: no receive streams")
	}
	ref := preamble.LLTF()[32:96] // one clean long symbol
	n := len(rx[0])
	if searchFrom < 0 {
		searchFrom = 0
	}
	if searchTo > n-len(ref)-ofdm.FFTSize {
		searchTo = n - len(ref) - ofdm.FFTSize
	}
	if searchTo <= searchFrom {
		return 0, fmt.Errorf("synchro: empty fine-timing window [%d, %d)", searchFrom, searchTo)
	}
	// The LTF has two consecutive long symbols: the score at pos sums, per
	// antenna, the correlation magnitudes at pos and pos+64, which sharpens
	// the peak and rejects single-symbol false alarms. The second
	// correlation at pos is the first at pos+64, so each lag is correlated
	// once: ring holds each antenna's last 64 magnitudes, indexed by lag
	// mod 64, until the lag 64 later pairs with them.
	var ringBuf [4 * 64]float64
	ring := ringBuf[:]
	if need := 64 * len(rx); need > len(ring) {
		ring = make([]float64, need)
	}
	best, bestV := -1, math.Inf(-1)
	for k := searchFrom; k < searchTo+64; k++ {
		pos := k - 64
		var v float64
		for a, r := range rx {
			m := cmplx.Abs(dotConj(r[k:k+64], ref))
			slot := &ring[64*a+(k&63)]
			v += *slot + m
			*slot = m
		}
		if pos >= searchFrom && v > bestV {
			best, bestV = pos, v
		}
	}
	return best, nil
}

func dotConj(a, b []complex128) complex128 {
	var s complex128
	for i := range b {
		s += a[i] * cmplx.Conj(b[i])
	}
	return s
}
