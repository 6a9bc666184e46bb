package phy

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/bitutil"
	"repro/internal/chanest"
	"repro/internal/cmatrix"
	"repro/internal/est"
	"repro/internal/fec"
	"repro/internal/mimo"
	"repro/internal/modem"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/ofdm"
	"repro/internal/preamble"
	"repro/internal/sounding"
	"repro/internal/synchro"
	"repro/internal/vandebeek"
)

// ErrBadSIG marks a SIG field that parsed (parity/CRC passed) but carries a
// value that cannot be right for an HT-mixed PPDU — a corrupted or spoofed
// header. Callers should treat it as a rejected packet, not a fault.
var ErrBadSIG = errors.New("phy: SIG field failed validation")

// ErrSIGBounds marks a SIG-announced payload geometry that does not fit the
// captured streams: decoding would read outside the sample buffers. The
// receiver rejects such headers up front instead of failing mid-symbol.
var ErrSIGBounds = errors.New("phy: SIG-announced length out of bounds")

// ErrNoPacket marks a capture in which the detector never fired: there is
// nothing to synchronize to. Telemetry classifies it as a sync failure.
var ErrNoPacket = errors.New("phy: no packet detected")

// RxConfig configures a receiver.
type RxConfig struct {
	// NumAntennas is the receive antenna count (≥ the transmitter's N_SS
	// for the linear detectors).
	NumAntennas int
	// Detector selects the MIMO detector: "zf", "mmse", "sic" or "ml".
	Detector string
	// DisablePhaseTracking turns off pilot-based common-phase-error
	// correction (for the E7 ablation).
	DisablePhaseTracking bool
	// SmoothingWindow applies frequency smoothing to the HT channel
	// estimate when > 1 (odd).
	SmoothingWindow int
	// TrackChannel enables decision-directed LMS tracking of the channel
	// estimate across data symbols, for time-varying (Doppler) channels.
	TrackChannel bool
	// CPMLSync replaces the preamble-autocorrelation CFO estimators with
	// the paper's MIMO-extended Van de Beek CP-ML estimator, run over the
	// cyclic prefixes of the OFDM symbols following packet detection. The
	// CP-ML estimator needs no training fields, so it keeps working on
	// arbitrary OFDM traffic; experiment E21 compares the two modes.
	CPMLSync bool
	// Workers bounds the in-packet parallelism of the batched data phase:
	// 0 selects GOMAXPROCS, 1 forces the inline serial schedule. Decoded
	// output is bit-identical at every worker count (the batch passes use
	// fixed-size symbol shards writing disjoint regions). Under
	// TrackChannel, detection runs in symbol order on one worker, because
	// each symbol's decisions update the channel the next one is detected
	// with; the FFT pass still shards.
	Workers int
}

// timingBackoff shifts every FFT window this many samples into the cyclic
// prefix to tolerate residual timing error. It is below the short guard
// interval's 8-sample prefix, so every window stays inside its symbol.
const timingBackoff = 3

// trackStep is the LMS step size µ of decision-directed channel tracking.
const trackStep = 0.25

// RxResult reports one decoded packet.
type RxResult struct {
	// PSDU is the recovered payload (nil when decoding failed outright).
	PSDU []byte
	// LSIG and HTSIG are the parsed SIGNAL fields.
	LSIG  preamble.LSIG
	HTSIG preamble.HTSIG
	// MCS is the modulation and coding scheme announced by HT-SIG.
	MCS MCS
	// SNRdB is the data-aided SNR estimate from the L-LTF.
	SNRdB float64
	// NoiseVar is the estimated per-subcarrier complex noise variance.
	NoiseVar float64
	// CFO is the total corrected carrier frequency offset in rad/sample.
	CFO float64
	// Timing is the sample index of the detected L-STF start estimate.
	Timing int
	// CPETrace records the per-symbol common phase error the pilot tracker
	// measured (empty when tracking is disabled).
	CPETrace []float64
	// Sounding reports channel-state metrics (capacity, condition number,
	// recommended stream count) derived from the HT channel estimate.
	Sounding *sounding.Report
}

// Receiver decodes HT-mixed PPDUs from raw baseband streams. Not safe for
// concurrent use.
type Receiver struct {
	cfg    RxConfig
	sig    *sigCodec
	legDem *ofdm.Demodulator
	htDem  *ofdm.Demodulator
	vit    *fec.Viterbi
	// Per-packet scratch reused across Receive calls so steady-state
	// decoding stays off the allocator's hot path.
	depBuf []float64
	decBuf []byte
	// Cached MIMO detector, reused while consecutive packets announce the
	// same (scheme, streams); Prepare fully resets detector state per packet.
	det       mimo.Detector
	detScheme modem.Scheme
	detNSS    int
	// obs, when set, receives per-packet telemetry (SNR/BER/PER series and
	// stage traces). Nil keeps the decode path free of telemetry cost.
	obs *RxObs
	// packetID is the TX-assigned correlation key of the burst about to be
	// decoded (0 = unknown), stamped onto traces and flight evidence.
	packetID uint64
	// Batched data-phase state (rxbatch.go): the persistent worker set and
	// the per-MCS fused scatter tables.
	workers      []*rxWorker
	scatterCache map[int][][]int32
	// Per-antenna tone and pilot slabs of the data phase, grow-only like
	// depBuf, and reused slice headers and pilot reference buffers.
	tones      [][]complex128
	pilots     [][]complex128
	pilotViews [][]complex128
	toneViews  [][]complex128
	txPilots   [][]complex128
}

// dataCtx carries the data-field geometry and per-packet processing state
// from the receive chain's front half into the data phase and the decode
// tail.
type dataCtx struct {
	rx         [][]complex128
	mcs        MCS
	htsig      preamble.HTSIG
	nSym       int
	steps      int // Viterbi steps decoded: SERVICE + PSDU + tail
	dataStart  int
	dataSymLen int
	dataCP     int
	detector   mimo.Detector
	tracker    *chanest.PhaseTracker
	// h holds the data-tone channel matrices the detector was prepared
	// with; channel tracking updates them in place.
	h        []*cmatrix.Matrix
	noiseVar float64
	result   *RxResult
}

// SetObs attaches the receiver's telemetry surface. Nil detaches it.
func (r *Receiver) SetObs(o *RxObs) { r.obs = o }

// SetPacketID labels the next Receive call with the TX-assigned packet ID
// recovered from the transport (radio frame header), tying the packet's
// trace and flight evidence to the sender's record.
func (r *Receiver) SetPacketID(id uint64) { r.packetID = id }

// htDataSubcarriers maps data-tone position to the signed logical subcarrier
// index (−28..28), the labeling flight dumps use.
var htDataSubcarriers = func() []int {
	out := make([]int, len(ofdm.HTToneMap.Data))
	for i, b := range ofdm.HTToneMap.Data {
		if b >= ofdm.FFTSize/2 {
			b -= ofdm.FFTSize
		}
		out[i] = b
	}
	return out
}()

// NewReceiver validates the configuration and returns a receiver.
func NewReceiver(cfg RxConfig) (*Receiver, error) {
	if cfg.NumAntennas < 1 || cfg.NumAntennas > 4 {
		return nil, fmt.Errorf("phy: antenna count %d outside [1,4]", cfg.NumAntennas)
	}
	switch cfg.Detector {
	case "", "zf", "mmse", "sic", "ml":
	default:
		return nil, fmt.Errorf("phy: unknown detector %q", cfg.Detector)
	}
	if cfg.Detector == "" {
		cfg.Detector = "mmse"
	}
	if cfg.Workers < 0 {
		return nil, fmt.Errorf("phy: worker count %d is negative", cfg.Workers)
	}
	return &Receiver{
		cfg:    cfg,
		sig:    newSigCodec(),
		legDem: ofdm.NewDemodulator(ofdm.LegacyToneMap),
		htDem:  ofdm.NewDemodulator(ofdm.HTToneMap),
		vit:    fec.NewViterbi(),
	}, nil
}

// Receive synchronizes to and decodes the first PPDU in the streams.
// rx[a] is the baseband of antenna a; all must be equal length. The samples
// are modified in place by CFO correction. In preamble sync mode the coarse
// offset is first removed only from the sync prefix that fine timing and
// fine CFO read, so a receive that fails before fine CFO leaves only that
// prefix derotated.
//
// With an attached RxObs the call additionally records a stage trace
// (sync → chanest → demod → detector → viterbi; the caller's FCS check adds
// crc via ActiveTrace/PacketResult) and updates the SNR/BER/PER series.
func (r *Receiver) Receive(rx [][]complex128) (*RxResult, error) {
	tr := r.obs.startTrace()
	tr.SetPacketID(r.packetID)
	res, err := r.receive(rx, tr)
	if err != nil {
		r.obs.recordFailure(err)
		tr.Finish(false)
		// A packet that dies inside the PHY never reaches the caller's FCS
		// check, so its evidence is finalized here with the classified error.
		r.obs.finishEvidence(verdictFor(err), tr)
		return res, err
	}
	r.obs.packetDecoded(res)
	// Close the viterbi span but leave the trace active: the caller owns
	// the crc stage and terminal verdict (PacketResult).
	tr.End()
	return res, nil
}

// receive is the synchronization and decode chain behind Receive, with
// stage span markers threaded through it: the front half up to the data
// field, the batched data phase, and the Viterbi/descramble tail.
func (r *Receiver) receive(rx [][]complex128, tr *obs.Trace) (*RxResult, error) {
	ctx, err := r.front(rx, tr)
	if err != nil {
		return ctx.result, err
	}
	dep, err := r.dataBatch(&ctx, tr)
	if err != nil {
		return ctx.result, err
	}
	return r.finish(&ctx, dep, tr)
}

// front runs the chain up to the data field — packet detection, CFO and
// timing, legacy and HT channel estimation, both SIG fields — and prepares
// the detector and the Viterbi decoder. On error, ctx.result is the
// partial result Receive reports, which may be nil.
func (r *Receiver) front(rx [][]complex128, tr *obs.Trace) (dataCtx, error) {
	if len(rx) != r.cfg.NumAntennas {
		return dataCtx{}, fmt.Errorf("phy: %d streams for %d antennas", len(rx), r.cfg.NumAntennas)
	}
	// --- 1. Packet detection on the STF periodicity ---------------------
	tr.Begin(obs.StageSync)
	det, err := r.detect(rx)
	if err != nil {
		return dataCtx{}, err
	}
	// Evidence capture opens here, before CFO correction rewrites rx in
	// place: the dump keeps the sync-point IQ as the antenna actually saw it.
	r.obs.beginEvidence(r.packetID, rx, det.Index)
	// The detection index lies inside the STF. Estimate the STF region for
	// coarse CFO: use up to 96 samples ending at the detection index.
	stfEnd := det.Index
	stfStart := stfEnd - 96
	if stfStart < 0 {
		stfStart = 0
	}
	// The LTF's first long symbol begins 192 samples after the STF start;
	// fine timing searches a generous window [from, to) around the detection
	// point. Its correlations, and the LTF pair fine CFO reads, end before
	// syncEnd.
	from := det.Index - 40
	to := det.Index + 280
	syncEnd := to + 2*ofdm.FFTSize
	var coarse float64
	if r.cfg.CPMLSync {
		coarse, err = r.cpmlCFO(rx, det.Index)
		if err != nil {
			return dataCtx{}, fmt.Errorf("phy: CP-ML sync: %w", err)
		}
		// CP-ML has no fine stage: one pass derotates the whole capture.
		synchro.CorrectCFO(rx, coarse)
	} else {
		region := subRange(rx, stfStart, stfEnd)
		coarse, err = synchro.CoarseCFO(region)
		if err != nil {
			return dataCtx{}, fmt.Errorf("phy: coarse CFO: %w", err)
		}
		// Only the sync prefix now: FinishCFO derotates the rest of the
		// capture by both offsets in one pass once fine CFO is known.
		synchro.CorrectCFOPrefix(rx, coarse, syncEnd)
	}

	// --- 2. Fine timing on the L-LTF ------------------------------------
	ltfStart, err := synchro.FineTiming(rx, from, to)
	if err != nil {
		return dataCtx{}, fmt.Errorf("phy: fine timing: %w", err)
	}
	stfStartEst := ltfStart - 192

	// --- 3. Fine CFO from the two long symbols (preamble mode only; the
	// CP-ML estimate already covers the fractional offset) ----------------
	fine := 0.0
	if !r.cfg.CPMLSync {
		ltfRegion := subRange(rx, ltfStart, ltfStart+128)
		fine, err = synchro.FineCFO(ltfRegion)
		if err != nil {
			return dataCtx{}, fmt.Errorf("phy: fine CFO: %w", err)
		}
		synchro.FinishCFO(rx, coarse, fine, syncEnd)
	}
	totalCFO := coarse + fine

	// --- 4. Legacy channel estimate + SNR from the L-LTF ----------------
	tr.Begin(obs.StageChanest)
	ltfSpectra := make([][][]complex128, len(rx))
	for a := range rx {
		s1, err := r.bins(r.legDem, rx[a], ltfStart-timingBackoff)
		if err != nil {
			return dataCtx{}, fmt.Errorf("phy: L-LTF window: %w", err)
		}
		s2, err := r.bins(r.legDem, rx[a], ltfStart+64-timingBackoff)
		if err != nil {
			return dataCtx{}, err
		}
		ltfSpectra[a] = [][]complex128{s1, s2}
	}
	leg, err := chanest.EstimateLegacy(ltfSpectra)
	if err != nil {
		return dataCtx{}, err
	}
	result := &RxResult{
		SNRdB:    est.DB(leg.SNR()),
		NoiseVar: leg.NoiseVar,
		CFO:      totalCFO,
		Timing:   stfStartEst,
	}

	// --- 5. L-SIG ---------------------------------------------------------
	// Offsets relative to the located LTF start (which is OffLLTF+32 within
	// the PPDU).
	tr.Begin(obs.StageDemod)
	base := ltfStart - (OffLLTF + 32)
	lsigSym, lsigCSI, err := r.equalizeLegacySymbols(rx, leg, base+OffLSIG, 1)
	if err != nil {
		return dataCtx{}, err
	}
	lsigBits, err := r.sig.decode(lsigSym, lsigCSI, leg.NoiseVar, false)
	if err != nil {
		return dataCtx{}, fmt.Errorf("phy: L-SIG decode: %w", err)
	}
	lsig, err := preamble.ParseLSIG(lsigBits)
	if err != nil {
		return dataCtx{result: result}, fmt.Errorf("phy: %w", err)
	}
	result.LSIG = lsig
	if lsig.Rate != preamble.Rate6Mbps {
		return dataCtx{result: result}, fmt.Errorf("%w: L-SIG rate %#04b is not the HT-mixed 6 Mbit/s code", ErrBadSIG, lsig.Rate)
	}

	// --- 6. HT-SIG --------------------------------------------------------
	htsigSym, htsigCSI, err := r.equalizeLegacySymbols(rx, leg, base+OffHTSIG, 2)
	if err != nil {
		return dataCtx{}, err
	}
	htsigBits, err := r.sig.decode(htsigSym, htsigCSI, leg.NoiseVar, true)
	if err != nil {
		return dataCtx{}, fmt.Errorf("phy: HT-SIG decode: %w", err)
	}
	htsig, err := preamble.ParseHTSIG(htsigBits)
	if err != nil {
		return dataCtx{result: result}, fmt.Errorf("phy: %w", err)
	}
	result.HTSIG = htsig
	mcs, err := Lookup(htsig.MCS)
	if err != nil {
		return dataCtx{result: result}, fmt.Errorf("phy: HT-SIG announced unsupported %w", err)
	}
	result.MCS = mcs
	if mcs.NSS > r.cfg.NumAntennas && r.cfg.Detector != "ml" {
		return dataCtx{result: result}, fmt.Errorf("phy: %d antennas cannot linearly separate %d streams", r.cfg.NumAntennas, mcs.NSS)
	}

	// Validate the announced payload geometry against the captured streams
	// before touching the HT-LTFs: a corrupted-but-CRC-lucky HT-SIG must be
	// rejected with a typed error, not discovered mid-symbol.
	nltf := preamble.NumHTLTF(mcs.NSS)
	if htsig.Length == 0 {
		return dataCtx{result: result}, fmt.Errorf("%w: HT-SIG announces an empty PSDU", ErrSIGBounds)
	}
	nSym := mcs.NumSymbols(htsig.Length)
	dataCP := ofdm.CPLen
	if htsig.ShortGI {
		dataCP = ofdm.CPLenShort
	}
	// The last FFT window ends timingBackoff samples short of the nominal
	// PPDU end.
	need := base + OffHTLTF + nltf*preamble.HTLTFLen + nSym*(ofdm.FFTSize+dataCP) - timingBackoff
	if need > len(rx[0]) {
		return dataCtx{result: result}, fmt.Errorf("%w: HT-SIG length %d needs %d samples, stream has %d",
			ErrSIGBounds, htsig.Length, need, len(rx[0]))
	}

	// --- 7. HT channel estimation from the HT-LTFs ----------------------
	tr.Begin(obs.StageChanest)
	htSpectra := make([][][]complex128, len(rx))
	for a := range rx {
		htSpectra[a] = make([][]complex128, nltf)
		for n := 0; n < nltf; n++ {
			spec, err := r.bins(r.htDem, rx[a], base+OffHTLTF+n*preamble.HTLTFLen+ofdm.CPLen-timingBackoff)
			if err != nil {
				return dataCtx{result: result}, fmt.Errorf("phy: HT-LTF window: %w", err)
			}
			htSpectra[a][n] = spec
		}
	}
	htEst, err := chanest.EstimateHT(htSpectra, mcs.NSS)
	if err != nil {
		return dataCtx{result: result}, err
	}
	if (r.cfg.SmoothingWindow > 1) && htsig.Smoothing {
		if err := htEst.Smooth(r.cfg.SmoothingWindow); err != nil {
			return dataCtx{result: result}, err
		}
	}
	if snr := leg.SNR(); snr > 0 {
		// Channel-state metrics for link adaptation; failure is not fatal.
		if rep, serr := sounding.Analyze(htEst.DataMatrices(), snr); serr == nil {
			result.Sounding = rep
		}
	}
	if ev := r.obs.evidence(); ev != nil {
		ev.ChanEst = flight.CaptureChanEst(htEst.DataMatrices(), htDataSubcarriers)
	}

	// --- 8. MIMO detection over the data symbols ------------------------
	tr.Begin(obs.StageDetector)
	if r.det == nil || r.detScheme != mcs.Scheme || r.detNSS != mcs.NSS {
		d, derr := mimo.NewDetector(r.cfg.Detector, mcs.Scheme, mcs.NSS)
		if derr != nil {
			return dataCtx{result: result}, derr
		}
		r.det, r.detScheme, r.detNSS = d, mcs.Scheme, mcs.NSS
	}
	detector := r.det
	h := htEst.DataMatrices()
	if err := detector.Prepare(h, leg.NoiseVar); err != nil {
		return dataCtx{result: result}, err
	}
	var tracker *chanest.PhaseTracker
	if !r.cfg.DisablePhaseTracking {
		tracker = chanest.NewPhaseTracker(htEst)
	}

	// Pre-size the Viterbi decoder from the SIG-declared packet length so
	// the decode in finish starts with its traceback storage in place.
	steps := 16 + 8*htsig.Length + 6
	if steps > nSym*mcs.NDBPS() {
		return dataCtx{result: result}, fmt.Errorf("phy: HT-SIG length %d exceeds the %d-symbol data field", htsig.Length, nSym)
	}
	r.vit.Reserve(steps)
	return dataCtx{
		rx:         rx,
		mcs:        mcs,
		htsig:      htsig,
		nSym:       nSym,
		steps:      steps,
		dataStart:  base + OffHTLTF + nltf*preamble.HTLTFLen,
		dataSymLen: ofdm.FFTSize + dataCP,
		dataCP:     dataCP,
		detector:   detector,
		tracker:    tracker,
		h:          h,
		noiseVar:   leg.NoiseVar,
		result:     result,
	}, nil
}

// finish is the receive chain's tail: Viterbi decode of the data phase's
// depunctured LLRs, pre-FEC accounting and descrambling into ctx.result.
func (r *Receiver) finish(ctx *dataCtx, dep []float64, tr *obs.Trace) (*RxResult, error) {
	// --- 9. Viterbi decode and descramble -------------------------------
	// The trellis is in the zero state right after the 6 tail bits; the pad
	// bits that fill the last symbol keep driving it afterwards, so decode
	// only SERVICE + PSDU + tail steps and anchor traceback at the tail.
	tr.Begin(obs.StageViterbi)
	decoded, err := r.vit.DecodeSoftInto(r.decBuf, dep[:2*ctx.steps], true)
	if err != nil {
		return ctx.result, err
	}
	r.decBuf = decoded
	if r.obs != nil {
		r.obs.prefec(preFECCompare(decoded, dep))
	}
	// Descramble: recover the seed from the SERVICE field (the first 7
	// scrambled bits reveal the initial state).
	descrambled := descramble(decoded)
	psduBits := descrambled[16 : 16+8*ctx.htsig.Length]
	psdu, err := bitutil.BitsToBytes(psduBits)
	if err != nil {
		return ctx.result, err
	}
	ctx.result.PSDU = psdu
	return ctx.result, nil
}

// descramble inverts the self-synchronizing scrambler given that the first
// 7 data bits (start of SERVICE) were zero before scrambling: the received
// first 7 bits ARE the scrambler sequence prefix, from which the seed is
// recovered (IEEE 802.11-2012 §18.3.5.7).
func descramble(bits []byte) []byte {
	if len(bits) < 7 {
		return bits
	}
	// Reconstruct the LFSR state from the first 7 output bits. Output bit
	// b_i = x7 ⊕ x4 of the state at step i and also becomes the new x1.
	// Running the recursion backwards from the observed prefix yields the
	// seed; equivalently, find the unique 7-bit seed whose sequence prefix
	// matches.
	out := make([]byte, len(bits))
	for seed := 1; seed <= 0x7F; seed++ {
		s := bitutil.NewScrambler(byte(seed))
		match := true
		for i := 0; i < 7; i++ {
			if s.NextBit() != bits[i]&1 {
				match = false
				break
			}
		}
		if !match {
			continue
		}
		d := bitutil.NewScrambler(byte(seed))
		for i := range bits {
			out[i] = (bits[i] & 1) ^ d.NextBit()
		}
		return out
	}
	// No seed matched (corrupted SERVICE); return as-is.
	copy(out, bits)
	return out
}

// detect runs the streaming packet detector over the buffers.
func (r *Receiver) detect(rx [][]complex128) (*synchro.Detection, error) {
	d, err := synchro.NewDetector(len(rx))
	if err != nil {
		return nil, err
	}
	samples := make([]complex128, len(rx))
	n := len(rx[0])
	for a := range rx {
		if len(rx[a]) != n {
			return nil, fmt.Errorf("phy: stream %d has %d samples, stream 0 has %d", a, len(rx[a]), n)
		}
	}
	for i := 0; i < n; i++ {
		for a := range rx {
			samples[a] = rx[a][i]
		}
		det, err := d.Push(samples)
		if err != nil {
			return nil, err
		}
		if det != nil {
			return det, nil
		}
	}
	return nil, fmt.Errorf("%w in %d samples", ErrNoPacket, n)
}

// bins demodulates a 64-sample window starting at off into a full spectrum.
func (r *Receiver) bins(dem *ofdm.Demodulator, stream []complex128, off int) ([]complex128, error) {
	if off < 0 || off+ofdm.FFTSize > len(stream) {
		return nil, fmt.Errorf("phy: FFT window [%d, %d) outside stream of %d", off, off+ofdm.FFTSize, len(stream))
	}
	spec := make([]complex128, ofdm.FFTSize)
	if err := dem.Bins(spec, stream[off:off+ofdm.FFTSize]); err != nil {
		return nil, err
	}
	return spec, nil
}

// equalizeLegacySymbols demodulates count legacy symbols starting at the
// PPDU offset and MRC-combines them across antennas using the L-LTF channel
// estimate. Returns per-symbol 48-tone vectors and CSI weights.
func (r *Receiver) equalizeLegacySymbols(rx [][]complex128, leg *chanest.LegacyEstimate, off, count int) ([][]complex128, [][]float64, error) {
	// Phase ramp difference: the legacy H was estimated with the same
	// backoff, so using identical windows keeps the ramp consistent.
	symbols := make([][]complex128, count)
	csi := make([][]float64, count)
	for s := 0; s < count; s++ {
		start := off + s*ofdm.SymbolLen + ofdm.CPLen - timingBackoff
		tones := make([]complex128, ofdm.LegacyToneMap.NumData())
		weights := make([]float64, ofdm.LegacyToneMap.NumData())
		specs := make([][]complex128, len(rx))
		for a := range rx {
			spec, err := r.bins(r.legDem, rx[a], start)
			if err != nil {
				return nil, nil, err
			}
			specs[a] = spec
		}
		for i, bin := range ofdm.LegacyToneMap.Data {
			var num complex128
			var den float64
			for a := range rx {
				h := leg.H[a][bin]
				num += conj(h) * specs[a][bin]
				den += real(h)*real(h) + imag(h)*imag(h)
			}
			if den < 1e-12 {
				den = 1e-12
			}
			tones[i] = num / complex(den, 0)
			weights[i] = den
		}
		symbols[s] = tones
		csi[s] = weights
	}
	return symbols, csi, nil
}

func conj(v complex128) complex128 { return complex(real(v), -imag(v)) }

// cpmlCFO runs the MIMO-extended Van de Beek estimator over the OFDM
// symbols following the detection point and returns the CFO in rad/sample.
// The L-LTF region onward is CP-structured (the LTF's two long symbols
// correlate at lag 64, as do every SIG and data symbol's prefix), so the
// window starts past the 16-periodic STF, where the lag-64 CP metric is
// informative.
func (r *Receiver) cpmlCFO(rx [][]complex128, detIdx int) (float64, error) {
	est, err := vandebeek.New(ofdm.FFTSize, ofdm.CPLen, 10 /* ≈10 dB design point */)
	if err != nil {
		return 0, err
	}
	// The detection index sits inside the STF; skip past it.
	from := detIdx + 120
	to := from + 10*ofdm.SymbolLen
	n := len(rx[0])
	if to > n {
		to = n
	}
	if to-from < 2*ofdm.SymbolLen {
		return 0, fmt.Errorf("only %d samples after detection", to-from)
	}
	window := subRange(rx, from, to)
	symbols := (to - from) / ofdm.SymbolLen
	e, err := est.EstimateAveraged(window, symbols-1)
	if err != nil {
		return 0, err
	}
	// ε is in subcarrier spacings: ω = 2πε/N rad/sample.
	return 2 * math.Pi * e.CFO / float64(ofdm.FFTSize), nil
}

// subRange returns views of every stream restricted to [from, to), clamped
// to the stream bounds.
func subRange(rx [][]complex128, from, to int) [][]complex128 {
	out := make([][]complex128, len(rx))
	for a := range rx {
		f, t := from, to
		if f < 0 {
			f = 0
		}
		if t > len(rx[a]) {
			t = len(rx[a])
		}
		if t < f {
			t = f
		}
		out[a] = rx[a][f:t]
	}
	return out
}
