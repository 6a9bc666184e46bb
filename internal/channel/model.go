// Package channel simulates the radio path the paper's testbed provided
// with USRP2 front-ends and indoor antennas: MIMO fading (flat Rayleigh and
// TGn-style frequency-selective multipath), AWGN, and the front-end
// impairments a real SDR chain introduces — carrier frequency offset,
// sampling clock offset, IQ imbalance, oscillator phase noise and DC offset.
// Every impairment is independently switchable so experiments can isolate
// the receiver algorithm designed for it.
package channel

import (
	"fmt"
	"math"
	"math/rand"
)

// Model selects the propagation model.
type Model int

// Propagation models. The TGn letters follow IEEE 802.11 TGn channel model
// RMS delay spreads (A: flat/0 ns, B: 15 ns, C: 30 ns, D: 50 ns, E: 100 ns,
// F: 150 ns); taps are drawn from an exponential power-delay profile sampled
// at the 50 ns sample period. This is a simplification of the full TGn
// cluster model documented in DESIGN.md: it preserves the frequency
// selectivity and Rayleigh statistics the receiver algorithms are sensitive
// to, without the angular-spectrum machinery an antenna-array study needs.
const (
	// Identity passes the signal through unchanged (plus impairments and
	// noise): back-to-back cable test.
	Identity Model = iota
	// FlatRayleigh draws one CN(0,1) coefficient per TX-RX pair per packet.
	FlatRayleigh
	TGnA
	TGnB
	TGnC
	TGnD
	TGnE
	TGnF
)

func (m Model) String() string {
	switch m {
	case Identity:
		return "identity"
	case FlatRayleigh:
		return "rayleigh"
	case TGnA:
		return "tgn-a"
	case TGnB:
		return "tgn-b"
	case TGnC:
		return "tgn-c"
	case TGnD:
		return "tgn-d"
	case TGnE:
		return "tgn-e"
	case TGnF:
		return "tgn-f"
	}
	return fmt.Sprintf("Model(%d)", int(m))
}

// ParseModel converts a name (as printed by String) back to a Model.
func ParseModel(s string) (Model, error) {
	for m := Identity; m <= TGnF; m++ {
		if m.String() == s {
			return m, nil
		}
	}
	return 0, fmt.Errorf("channel: unknown model %q", s)
}

// rmsDelayNs returns the RMS delay spread of the model in nanoseconds.
func (m Model) rmsDelayNs() float64 {
	switch m {
	case TGnB:
		return 15
	case TGnC:
		return 30
	case TGnD:
		return 50
	case TGnE:
		return 100
	case TGnF:
		return 150
	default:
		return 0
	}
}

// Config assembles a channel.
type Config struct {
	NumTX, NumRX int
	Model        Model
	// SNRdB sets the AWGN level per receive antenna assuming unit total
	// transmit power and unit-energy fading (the transmitter's 1/√N_TX
	// power split keeps this calibration for any antenna count).
	SNRdB float64
	// NoNoise disables AWGN entirely (overrides SNRdB).
	NoNoise bool
	// Seed makes the channel reproducible. Required (zero is a valid seed).
	Seed int64
	// Redraw controls whether fading taps are redrawn on every Apply
	// (block fading, the default behaviour when true) or frozen after the
	// first draw.
	Freeze bool
	// TXCorrelation ρ ∈ [0, 1) correlates the fading seen from different
	// transmit antennas (Kronecker model, H ← H·R_tx^{1/2} with
	// R_tx[i][j] = ρ^|i−j|). High correlation collapses the channel rank
	// and starves spatial multiplexing — the regime experiment E20 probes.
	TXCorrelation float64

	// DopplerHz makes the fading taps time-varying inside a burst: each
	// tap evolves as an AR(1) (Gauss-Markov) process, updated every
	// dopplerBlock samples with correlation matched to the given maximum
	// Doppler frequency. Requires SampleRate. Zero keeps taps static.
	DopplerHz float64

	// Front-end impairments, all zero by default.
	CFOHz      float64 // carrier frequency offset
	SampleRate float64 // needed when CFOHz or ClockPPM set; e.g. 20e6
	// ClockPPM is the sampling clock offset in parts per million.
	//mimonet:testonly-ok switchable front-end impairment; TestLoopbackUnderFrontEndImpairments drives it
	ClockPPM float64
	// IQGainDB and IQPhaseDeg are the IQ amplitude and phase imbalance.
	//mimonet:testonly-ok switchable front-end impairment; TestLoopbackUnderFrontEndImpairments drives it
	IQGainDB float64
	//mimonet:testonly-ok switchable front-end impairment; TestLoopbackUnderFrontEndImpairments drives it
	IQPhaseDeg float64
	// PhaseNoiseHz is the oscillator linewidth (Wiener phase noise).
	//mimonet:testonly-ok switchable front-end impairment; TestLoopbackUnderFrontEndImpairments drives it
	PhaseNoiseHz float64
	// DCOffset is an additive DC term.
	//mimonet:testonly-ok switchable front-end impairment; TestLoopbackUnderFrontEndImpairments drives it
	DCOffset        complex128
	TimingOffset    int // extra lead samples of pure noise before the burst
	TrailingSilence int // noise samples appended after the burst
}

// dopplerBlock is the Doppler tap-update granularity in samples: one OFDM
// symbol.
const dopplerBlock = 80

// Channel applies a Config to transmit bursts. Not safe for concurrent use
// (it owns an RNG); create one per goroutine.
type Channel struct {
	cfg  Config
	rng  *rand.Rand
	taps [][][]complex128 // [rx][tx][tap]
	// lastH is kept for tests/diagnostics: the taps used in the last Apply.
	lastH [][][]complex128
}

// New validates the configuration and returns a channel.
func New(cfg Config) (*Channel, error) {
	if cfg.NumTX < 1 || cfg.NumTX > 4 || cfg.NumRX < 1 || cfg.NumRX > 4 {
		return nil, fmt.Errorf("channel: antenna counts must be in [1,4], got %dx%d", cfg.NumTX, cfg.NumRX)
	}
	if (cfg.CFOHz != 0 || cfg.ClockPPM != 0 || cfg.PhaseNoiseHz != 0 || cfg.DopplerHz != 0) && cfg.SampleRate <= 0 {
		return nil, fmt.Errorf("channel: SampleRate required for CFO/clock/phase-noise/Doppler impairments")
	}
	if cfg.DopplerHz < 0 {
		return nil, fmt.Errorf("channel: negative Doppler")
	}
	if cfg.DopplerHz > 0 && cfg.Model == Identity {
		return nil, fmt.Errorf("channel: Doppler requires a fading model")
	}
	if cfg.PhaseNoiseHz < 0 || cfg.TimingOffset < 0 || cfg.TrailingSilence < 0 {
		return nil, fmt.Errorf("channel: negative impairment parameter")
	}
	if cfg.TXCorrelation < 0 || cfg.TXCorrelation >= 1 {
		if cfg.TXCorrelation != 0 {
			return nil, fmt.Errorf("channel: TX correlation %g outside [0, 1)", cfg.TXCorrelation)
		}
	}
	return &Channel{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}, nil
}

// Config returns the channel's configuration.
func (c *Channel) Config() Config { return c.cfg }

// numTaps returns the FIR length for the configured model at 20 MHz.
func (c *Channel) numTaps() int {
	rms := c.cfg.Model.rmsDelayNs()
	if rms == 0 {
		return 1
	}
	// Cover ~4 RMS delay spreads at 50 ns per tap, minimum 2 taps.
	n := int(math.Ceil(4*rms/50)) + 1
	if n < 2 {
		n = 2
	}
	return n
}

// drawTaps draws a fresh fading realization with unit total energy per
// TX-RX pair.
func (c *Channel) drawTaps() {
	if c.cfg.Model == Identity {
		c.taps = nil
		return
	}
	n := c.numTaps()
	rms := c.cfg.Model.rmsDelayNs()
	// Exponential PDP p_l ∝ exp(−l·Ts/rms), normalized to Σp = 1.
	pdp := make([]float64, n)
	var total float64
	for l := range pdp {
		if rms == 0 {
			if l == 0 {
				pdp[l] = 1
			}
		} else {
			pdp[l] = math.Exp(-float64(l) * 50 / rms)
		}
		total += pdp[l]
	}
	for l := range pdp {
		pdp[l] /= total
	}
	c.taps = make([][][]complex128, c.cfg.NumRX)
	for rx := range c.taps {
		c.taps[rx] = make([][]complex128, c.cfg.NumTX)
		for tx := range c.taps[rx] {
			t := make([]complex128, n)
			for l := range t {
				std := math.Sqrt(pdp[l] / 2)
				t[l] = complex(c.rng.NormFloat64()*std, c.rng.NormFloat64()*std)
			}
			c.taps[rx][tx] = t
		}
	}
	if rho := c.cfg.TXCorrelation; rho > 0 && c.cfg.NumTX > 1 {
		c.correlateTX(rho, n)
	}
}

// correlateTX imposes the Kronecker TX-side correlation H ← H·R^{1/2},
// applied per tap across the transmit dimension. R^{1/2} is obtained by
// Cholesky factorization of R[i][j] = ρ^|i−j| (real symmetric positive
// definite for ρ < 1).
func (c *Channel) correlateTX(rho float64, nTaps int) {
	nt := c.cfg.NumTX
	// Cholesky of the exponential correlation matrix.
	lchol := make([][]float64, nt)
	for i := range lchol {
		lchol[i] = make([]float64, nt)
	}
	for j := 0; j < nt; j++ {
		for i := j; i < nt; i++ {
			sum := math.Pow(rho, math.Abs(float64(i-j)))
			for k := 0; k < j; k++ {
				sum -= lchol[i][k] * lchol[j][k]
			}
			if i == j {
				lchol[i][j] = math.Sqrt(sum)
			} else {
				lchol[i][j] = sum / lchol[j][j]
			}
		}
	}
	// H_row ← H_row · Lᵀ per RX antenna per tap: h'_t = Σ_s h_s · L[t][s].
	for rx := range c.taps {
		for l := 0; l < nTaps; l++ {
			orig := make([]complex128, nt)
			for t := 0; t < nt; t++ {
				orig[t] = c.taps[rx][t][l]
			}
			for t := 0; t < nt; t++ {
				var acc complex128
				for s := 0; s <= t; s++ {
					acc += orig[s] * complex(lchol[t][s], 0)
				}
				c.taps[rx][t][l] = acc
			}
		}
	}
}

// Taps returns the fading taps used by the most recent Apply, indexed
// [rx][tx][tap], or nil for the Identity model. The returned slices alias
// internal state; treat them as read-only.
func (c *Channel) Taps() [][][]complex128 { return c.lastH }

// Apply transmits one burst: tx[t] is the waveform of transmit chain t (all
// equal length). The returned rx[r] streams have length
// TimingOffset + ceil(len·(1+ppm)) + TrailingSilence.
func (c *Channel) Apply(tx [][]complex128) ([][]complex128, error) {
	if len(tx) != c.cfg.NumTX {
		return nil, fmt.Errorf("channel: %d tx streams, want %d", len(tx), c.cfg.NumTX)
	}
	n := len(tx[0])
	for i, s := range tx {
		if len(s) != n {
			return nil, fmt.Errorf("channel: tx stream %d has %d samples, stream 0 has %d", i, len(s), n)
		}
	}
	if n == 0 {
		return nil, fmt.Errorf("channel: empty burst")
	}
	if c.taps == nil && c.cfg.Model != Identity || !c.cfg.Freeze {
		c.drawTaps()
	}
	c.lastH = c.taps

	// 1. Fading/multipath per RX antenna.
	faded := make([][]complex128, c.cfg.NumRX)
	tapLen := 1
	if c.cfg.Model != Identity {
		tapLen = c.numTaps()
	}
	// Doppler evolution: precompute per-block tap trajectories shared by
	// every (rx, tx) pair's own AR(1) walk.
	var rho, innov float64
	numBlocks := 1
	if c.cfg.DopplerHz > 0 {
		// Gauss-Markov correlation over one block, from the Gaussian
		// Doppler spectrum approximation exp(−(2π f_D τ)²/2).
		tau := float64(dopplerBlock) / c.cfg.SampleRate
		x := 2 * math.Pi * c.cfg.DopplerHz * tau
		rho = math.Exp(-x * x / 2)
		innov = math.Sqrt(1 - rho*rho)
		numBlocks = (n + dopplerBlock - 1) / dopplerBlock
	}
	for rx := 0; rx < c.cfg.NumRX; rx++ {
		out := make([]complex128, n+tapLen-1)
		if c.cfg.Model == Identity {
			// Identity requires square mapping; route chain i to antenna i,
			// extra RX antennas receive silence.
			if rx < c.cfg.NumTX {
				copy(out, tx[rx])
			}
		} else if c.cfg.DopplerHz == 0 {
			for t := 0; t < c.cfg.NumTX; t++ {
				taps := c.taps[rx][t]
				for l, g := range taps {
					if g == 0 {
						continue
					}
					src := tx[t]
					for i := range src {
						out[i+l] += g * src[i]
					}
				}
			}
		} else {
			for t := 0; t < c.cfg.NumTX; t++ {
				// Evolve a copy of the drawn taps block by block. The AR(1)
				// innovation preserves each tap's PDP variance because the
				// stationary distribution of g ← ρg + √(1−ρ²)w matches the
				// initial draw.
				taps := append([]complex128(nil), c.taps[rx][t]...)
				vars := tapStds(taps, c.cfg.Model, c.numTaps())
				for b := 0; b < numBlocks; b++ {
					lo := b * dopplerBlock
					hi := lo + dopplerBlock
					if hi > n {
						hi = n
					}
					src := tx[t]
					for l, g := range taps {
						if g == 0 {
							continue
						}
						for i := lo; i < hi; i++ {
							out[i+l] += g * src[i]
						}
					}
					for l := range taps {
						w := complex(c.rng.NormFloat64()*vars[l], c.rng.NormFloat64()*vars[l])
						taps[l] = complex(rho, 0)*taps[l] + complex(innov, 0)*w
					}
				}
			}
		}
		faded[rx] = out
	}

	// 2. Front-end impairments (common oscillator across chains, as in the
	// paper's synchronized USRP2 setup).
	for rx := range faded {
		c.applyImpairments(faded[rx])
	}

	// 3. Timing offset, trailing silence, AWGN.
	noiseStd := 0.0
	if !c.cfg.NoNoise {
		noiseStd = math.Sqrt(math.Pow(10, -c.cfg.SNRdB/10) / 2)
	}
	out := make([][]complex128, c.cfg.NumRX)
	for rx := range faded {
		total := c.cfg.TimingOffset + len(faded[rx]) + c.cfg.TrailingSilence
		s := make([]complex128, total)
		copy(s[c.cfg.TimingOffset:], faded[rx])
		if noiseStd > 0 {
			for i := range s {
				s[i] += complex(c.rng.NormFloat64()*noiseStd, c.rng.NormFloat64()*noiseStd)
			}
		}
		// DC offset is a receiver-front-end artifact: present on every
		// sample the ADC produces, including lead/trailing noise.
		if c.cfg.DCOffset != 0 {
			for i := range s {
				s[i] += c.cfg.DCOffset
			}
		}
		out[rx] = s
	}
	return out, nil
}

// tapStds returns the per-tap innovation standard deviations (per real
// dimension) matching the model's exponential PDP, so the AR(1) Doppler walk
// keeps each tap at its profile power.
func tapStds(taps []complex128, m Model, n int) []float64 {
	rms := m.rmsDelayNs()
	pdp := make([]float64, len(taps))
	var total float64
	for l := range pdp {
		if rms == 0 {
			if l == 0 {
				pdp[l] = 1
			}
		} else {
			pdp[l] = math.Exp(-float64(l) * 50 / rms)
		}
		total += pdp[l]
	}
	out := make([]float64, len(taps))
	for l := range out {
		out[l] = math.Sqrt(pdp[l] / total / 2)
	}
	return out
}

// applyImpairments mutates one stream in place: IQ imbalance, CFO, phase
// noise, clock offset (resampling).
func (c *Channel) applyImpairments(s []complex128) {
	// IQ imbalance: y = α·x + β·conj(x) with α, β from gain g and phase φ.
	if c.cfg.IQGainDB != 0 || c.cfg.IQPhaseDeg != 0 {
		g := math.Pow(10, c.cfg.IQGainDB/20)
		phi := c.cfg.IQPhaseDeg * math.Pi / 180
		alpha := complex((1+g*math.Cos(phi))/2, g*math.Sin(phi)/2)
		beta := complex((1-g*math.Cos(phi))/2, -g*math.Sin(phi)/2)
		for i, v := range s {
			s[i] = alpha*v + beta*complex(real(v), -imag(v))
		}
	}
	// CFO + phase noise in one rotation pass.
	if c.cfg.CFOHz != 0 || c.cfg.PhaseNoiseHz > 0 {
		step := 2 * math.Pi * c.cfg.CFOHz / c.cfg.SampleRate
		pnStd := 0.0
		if c.cfg.PhaseNoiseHz > 0 {
			// Wiener phase noise: increment variance 2π·linewidth/Fs.
			pnStd = math.Sqrt(2 * math.Pi * c.cfg.PhaseNoiseHz / c.cfg.SampleRate)
		}
		phase := 0.0
		for i, v := range s {
			if pnStd > 0 {
				phase += c.rng.NormFloat64() * pnStd
			}
			rot := complex(math.Cos(phase), math.Sin(phase))
			s[i] = v * rot
			phase += step
		}
	}
	// Sampling clock offset: linear-interpolation resampling in place
	// (output shortened/stretched is approximated at equal length; the
	// packet-scale drift is what the receiver sees).
	if c.cfg.ClockPPM != 0 {
		ratio := 1 + c.cfg.ClockPPM*1e-6
		src := make([]complex128, len(s))
		copy(src, s)
		for i := range s {
			pos := float64(i) * ratio
			i0 := int(pos)
			frac := pos - float64(i0)
			if i0+1 >= len(src) {
				s[i] = src[len(src)-1]
				continue
			}
			s[i] = src[i0]*complex(1-frac, 0) + src[i0+1]*complex(frac, 0)
		}
	}
}
