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
	"repro/internal/metrics"
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
	// DetectorConfig tunes packet detection; zero value selects defaults.
	DetectorConfig synchro.DetectorConfig
	// TimingBackoff shifts every FFT window this many samples into the
	// cyclic prefix to tolerate residual timing error. Default 3.
	TimingBackoff int
	// TrackChannel enables decision-directed LMS tracking of the channel
	// estimate across data symbols, for time-varying (Doppler) channels.
	TrackChannel bool
	// CPMLSync replaces the preamble-autocorrelation CFO estimators with
	// the paper's MIMO-extended Van de Beek CP-ML estimator, run over the
	// cyclic prefixes of the OFDM symbols following packet detection. The
	// CP-ML estimator needs no training fields, so it keeps working on
	// arbitrary OFDM traffic; experiment E21 compares the two modes.
	CPMLSync bool
	// TrackStep is the LMS step size µ; default 0.25 when tracking.
	TrackStep float64
	// Workers bounds the in-packet parallelism of the batched data phase:
	// 0 selects GOMAXPROCS, 1 forces the inline serial schedule. Decoded
	// output is bit-identical at every worker count (the batch passes use
	// fixed-size symbol shards writing disjoint regions).
	Workers int
	// ScalarChain forces the legacy symbol-at-a-time data phase instead of
	// the block-batched one, as an ablation/debug escape hatch and for the
	// batch-equivalence tests. The receiver also falls back to the scalar
	// chain automatically when a feature requires it (decision-directed
	// channel tracking, flight-evidence capture).
	ScalarChain bool
	// NarrowDetect opts in to the single-precision linear detection kernel
	// on the batched path (zf/mmse only): weights and demap run in
	// complex64/float32, LLRs widen only at the decoder boundary. The
	// scalar chain and every Prepare stay in double precision.
	NarrowDetect bool
}

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
	// Batched data-phase state (rxbatch.go): the size-classed scratch pool,
	// the persistent worker set, and the per-MCS fused scatter tables.
	pool         bufPool
	workers      []*rxWorker
	scatterCache map[int][][]int32
	// Per-MCS interleaver/stream-parser caches, shared by both data phases
	// (construction builds permutation tables, so it is per-packet cost
	// worth hoisting).
	ilvCache    map[int][]*fec.Interleaver
	parserCache map[int]*mimo.StreamParser
	// Packet-lifetime slice headers and pilot reference buffers, reused.
	tones      [][]complex128
	pilots     [][]complex128
	pilotViews [][]complex128
	toneViews  [][]complex128
	txPilots   [][]complex128
}

// dataCtx carries the data-field geometry and per-packet processing state
// from receive() into the scalar or batched data phase.
type dataCtx struct {
	rx         [][]complex128
	mcs        MCS
	htsig      preamble.HTSIG
	nSym       int
	dataStart  int
	dataSymLen int
	dataCP     int
	dataBO     int
	detector   mimo.Detector
	batchDet   mimo.BatchDetector
	tracker    *chanest.PhaseTracker
	htEst      *chanest.HTEstimate
	noiseVar   float64
	ilv        []*fec.Interleaver
	parser     *mimo.StreamParser
	result     *RxResult
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
	if cfg.DetectorConfig == (synchro.DetectorConfig{}) {
		cfg.DetectorConfig = synchro.DefaultDetectorConfig()
	}
	if cfg.TimingBackoff == 0 {
		cfg.TimingBackoff = 3
	}
	if cfg.TimingBackoff < 0 || cfg.TimingBackoff >= ofdm.CPLen {
		return nil, fmt.Errorf("phy: timing backoff %d outside [0, %d)", cfg.TimingBackoff, ofdm.CPLen)
	}
	if cfg.TrackStep == 0 {
		cfg.TrackStep = 0.25
	}
	if cfg.TrackStep < 0 || cfg.TrackStep > 1 {
		return nil, fmt.Errorf("phy: LMS step %g outside (0, 1]", cfg.TrackStep)
	}
	if cfg.Workers < 0 {
		return nil, fmt.Errorf("phy: worker count %d is negative", cfg.Workers)
	}
	if cfg.NarrowDetect && cfg.Detector != "zf" && cfg.Detector != "mmse" {
		return nil, fmt.Errorf("phy: narrow detection kernel requires a linear detector, not %q", cfg.Detector)
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
// stage span markers threaded through it.
func (r *Receiver) receive(rx [][]complex128, tr *obs.Trace) (*RxResult, error) {
	if len(rx) != r.cfg.NumAntennas {
		return nil, fmt.Errorf("phy: %d streams for %d antennas", len(rx), r.cfg.NumAntennas)
	}
	// --- 1. Packet detection on the STF periodicity ---------------------
	tr.Begin(obs.StageSync)
	det, err := r.detect(rx)
	if err != nil {
		return nil, err
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
			return nil, fmt.Errorf("phy: CP-ML sync: %w", err)
		}
		// CP-ML has no fine stage: one pass derotates the whole capture.
		synchro.CorrectCFO(rx, coarse)
	} else {
		region := subRange(rx, stfStart, stfEnd)
		coarse, err = synchro.CoarseCFO(region)
		if err != nil {
			return nil, fmt.Errorf("phy: coarse CFO: %w", err)
		}
		// Only the sync prefix now: FinishCFO derotates the rest of the
		// capture by both offsets in one pass once fine CFO is known.
		synchro.CorrectCFOPrefix(rx, coarse, syncEnd)
	}

	// --- 2. Fine timing on the L-LTF ------------------------------------
	ltfStart, err := synchro.FineTiming(rx, from, to)
	if err != nil {
		return nil, fmt.Errorf("phy: fine timing: %w", err)
	}
	stfStartEst := ltfStart - 192

	// --- 3. Fine CFO from the two long symbols (preamble mode only; the
	// CP-ML estimate already covers the fractional offset) ----------------
	fine := 0.0
	if !r.cfg.CPMLSync {
		ltfRegion := subRange(rx, ltfStart, ltfStart+128)
		fine, err = synchro.FineCFO(ltfRegion)
		if err != nil {
			return nil, fmt.Errorf("phy: fine CFO: %w", err)
		}
		synchro.FinishCFO(rx, coarse, fine, syncEnd)
	}
	totalCFO := coarse + fine

	// --- 4. Legacy channel estimate + SNR from the L-LTF ----------------
	tr.Begin(obs.StageChanest)
	bo := r.cfg.TimingBackoff
	ltfSpectra := make([][][]complex128, len(rx))
	for a := range rx {
		s1, err := r.bins(r.legDem, rx[a], ltfStart-bo)
		if err != nil {
			return nil, fmt.Errorf("phy: L-LTF window: %w", err)
		}
		s2, err := r.bins(r.legDem, rx[a], ltfStart+64-bo)
		if err != nil {
			return nil, err
		}
		ltfSpectra[a] = [][]complex128{s1, s2}
	}
	leg, err := chanest.EstimateLegacy(ltfSpectra)
	if err != nil {
		return nil, err
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
		return nil, err
	}
	lsigBits, err := r.sig.decode(lsigSym, lsigCSI, leg.NoiseVar, false)
	if err != nil {
		return nil, fmt.Errorf("phy: L-SIG decode: %w", err)
	}
	lsig, err := preamble.ParseLSIG(lsigBits)
	if err != nil {
		return result, fmt.Errorf("phy: %w", err)
	}
	result.LSIG = lsig
	if lsig.Rate != preamble.Rate6Mbps {
		return result, fmt.Errorf("%w: L-SIG rate %#04b is not the HT-mixed 6 Mbit/s code", ErrBadSIG, lsig.Rate)
	}

	// --- 6. HT-SIG --------------------------------------------------------
	htsigSym, htsigCSI, err := r.equalizeLegacySymbols(rx, leg, base+OffHTSIG, 2)
	if err != nil {
		return nil, err
	}
	htsigBits, err := r.sig.decode(htsigSym, htsigCSI, leg.NoiseVar, true)
	if err != nil {
		return nil, fmt.Errorf("phy: HT-SIG decode: %w", err)
	}
	htsig, err := preamble.ParseHTSIG(htsigBits)
	if err != nil {
		return result, fmt.Errorf("phy: %w", err)
	}
	result.HTSIG = htsig
	mcs, err := Lookup(htsig.MCS)
	if err != nil {
		return result, fmt.Errorf("phy: HT-SIG announced unsupported %w", err)
	}
	result.MCS = mcs
	if mcs.NSS > r.cfg.NumAntennas && r.cfg.Detector != "ml" {
		return result, fmt.Errorf("phy: %d antennas cannot linearly separate %d streams", r.cfg.NumAntennas, mcs.NSS)
	}

	// Validate the announced payload geometry against the captured streams
	// before touching the HT-LTFs: a corrupted-but-CRC-lucky HT-SIG must be
	// rejected with a typed error, not discovered mid-symbol.
	nltf := preamble.NumHTLTF(mcs.NSS)
	if htsig.Length == 0 {
		return result, fmt.Errorf("%w: HT-SIG announces an empty PSDU", ErrSIGBounds)
	}
	nSym := mcs.NumSymbols(htsig.Length)
	dataCP := ofdm.CPLen
	if htsig.ShortGI {
		dataCP = ofdm.CPLenShort
	}
	dataBO := bo
	if dataBO >= dataCP {
		dataBO = dataCP - 1
	}
	// The last FFT window ends dataBO samples short of the nominal PPDU end.
	need := base + OffHTLTF + nltf*preamble.HTLTFLen + nSym*(ofdm.FFTSize+dataCP) - dataBO
	if need > len(rx[0]) {
		return result, fmt.Errorf("%w: HT-SIG length %d needs %d samples, stream has %d",
			ErrSIGBounds, htsig.Length, need, len(rx[0]))
	}

	// --- 7. HT channel estimation from the HT-LTFs ----------------------
	tr.Begin(obs.StageChanest)
	htSpectra := make([][][]complex128, len(rx))
	for a := range rx {
		htSpectra[a] = make([][]complex128, nltf)
		for n := 0; n < nltf; n++ {
			spec, err := r.bins(r.htDem, rx[a], base+OffHTLTF+n*preamble.HTLTFLen+ofdm.CPLen-bo)
			if err != nil {
				return result, fmt.Errorf("phy: HT-LTF window: %w", err)
			}
			htSpectra[a][n] = spec
		}
	}
	htEst, err := chanest.EstimateHT(htSpectra, mcs.NSS)
	if err != nil {
		return result, err
	}
	if (r.cfg.SmoothingWindow > 1) && htsig.Smoothing {
		if err := htEst.Smooth(r.cfg.SmoothingWindow); err != nil {
			return result, err
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
			return result, derr
		}
		if r.cfg.NarrowDetect {
			nw, ok := d.(mimo.Narrowable)
			if !ok {
				return result, fmt.Errorf("phy: %s detector has no narrow kernel", r.cfg.Detector)
			}
			if nerr := nw.SetNarrow(true); nerr != nil {
				return result, nerr
			}
		}
		r.det, r.detScheme, r.detNSS = d, mcs.Scheme, mcs.NSS
	}
	detector := r.det
	if err := detector.Prepare(htEst.DataMatrices(), leg.NoiseVar); err != nil {
		return result, err
	}
	var tracker *chanest.PhaseTracker
	if !r.cfg.DisablePhaseTracking {
		tracker = chanest.NewPhaseTracker(htEst)
	}

	ilv, parser, err := r.streamCodecs(mcs)
	if err != nil {
		return result, err
	}
	ctx := &dataCtx{
		rx:         rx,
		mcs:        mcs,
		htsig:      htsig,
		nSym:       nSym,
		dataStart:  base + OffHTLTF + nltf*preamble.HTLTFLen,
		dataSymLen: ofdm.FFTSize + dataCP,
		dataCP:     dataCP,
		dataBO:     dataBO,
		detector:   detector,
		tracker:    tracker,
		htEst:      htEst,
		noiseVar:   leg.NoiseVar,
		ilv:        ilv,
		parser:     parser,
		result:     result,
	}
	// Pre-size the Viterbi decoder from the SIG-declared packet length so
	// the decode below starts with its traceback storage in place.
	usefulSteps := 16 + 8*htsig.Length + 6
	dataBits := nSym * mcs.NDBPS()
	if usefulSteps > dataBits {
		return result, fmt.Errorf("phy: HT-SIG length %d exceeds the %d-symbol data field", htsig.Length, nSym)
	}
	r.vit.Reserve(usefulSteps)

	// The block-batched data phase is the default; the symbol-at-a-time
	// chain remains for features with inherently sequential symbol coupling
	// (decision-directed channel tracking), for flight-evidence capture
	// (per-symbol EVM accumulation), and as an explicit ablation switch.
	// Both produce bit-identical depunctured LLR streams.
	bd, canBatch := detector.(mimo.BatchDetector)
	useScalar := r.cfg.ScalarChain || r.cfg.TrackChannel || r.obs.evidence() != nil || !canBatch
	var dep, merged []float64
	if useScalar {
		dep, merged, err = r.dataScalar(ctx, tr)
	} else {
		ctx.batchDet = bd
		dep, err = r.dataBatch(ctx, tr)
	}
	if err != nil {
		return result, err
	}

	// --- 9. Viterbi decode and descramble -------------------------------
	// The trellis is in the zero state right after the 6 tail bits; the pad
	// bits that fill the last symbol keep driving it afterwards, so decode
	// only SERVICE + PSDU + tail steps and anchor traceback at the tail.
	tr.Begin(obs.StageViterbi)
	decoded, err := r.vit.DecodeSoftInto(r.decBuf, dep[:2*usefulSteps], true)
	if err != nil {
		return result, err
	}
	r.decBuf = decoded
	if r.obs != nil {
		var errs, bits int
		if merged != nil {
			errs, bits = preFECCompare(decoded, merged, mcs.Rate)
		} else {
			errs, bits = preFECCompareMother(decoded, dep)
		}
		r.obs.prefec(errs, bits)
	}
	// Descramble: recover the seed from the SERVICE field (the first 7
	// scrambled bits reveal the initial state).
	descrambled := descramble(decoded)
	psduBits := descrambled[16 : 16+8*htsig.Length]
	psdu, err := bitutil.BitsToBytes(psduBits)
	if err != nil {
		return result, err
	}
	result.PSDU = psdu
	return result, nil
}

// accumulateEVM folds one symbol's decision-directed error vectors into the
// per-subcarrier accumulators: each stream's LLR signs slice back to bits,
// map to the constellation point x̂, and every antenna's received tone is
// compared against the channel's prediction H·x̂ — the per-subcarrier EVM
// that localises MIMO impairments to individual tones.
func accumulateEVM(acc []metrics.EVM, perSymbol [][]float64, dataTones [][]complex128, h []*cmatrix.Matrix, mapper *modem.Mapper, bits []byte, xhat []complex128, nss, nbpsc int) {
	for k := range acc {
		for iss := 0; iss < nss; iss++ {
			for b := 0; b < nbpsc; b++ {
				bits[b] = 0
				if perSymbol[iss][k*nbpsc+b] < 0 {
					bits[b] = 1
				}
			}
			xhat[iss] = mapper.MapOne(bits)
		}
		hk := h[k]
		for a := range dataTones {
			var est complex128
			for s := 0; s < nss; s++ {
				est += hk.At(a, s) * xhat[s]
			}
			acc[k].Add(dataTones[a][k], est)
		}
	}
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
	d, err := synchro.NewDetector(len(rx), r.cfg.DetectorConfig)
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
	bo := r.cfg.TimingBackoff
	// Phase ramp difference: the legacy H was estimated with the same
	// backoff, so using identical windows keeps the ramp consistent.
	symbols := make([][]complex128, count)
	csi := make([][]float64, count)
	for s := 0; s < count; s++ {
		start := off + s*ofdm.SymbolLen + ofdm.CPLen - bo
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
