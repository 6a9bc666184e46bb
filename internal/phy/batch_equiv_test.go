package phy

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/chanest"
	"repro/internal/channel"
	"repro/internal/cmatrix"
	"repro/internal/fec"
	"repro/internal/metrics"
	"repro/internal/mimo"
	"repro/internal/modem"
	"repro/internal/obs/flight"
	"repro/internal/ofdm"
)

// referenceDataPhase is the symbol-at-a-time data phase that the batched
// chain replaced, kept as its bit-exact oracle: demodulate, phase-correct,
// detect, deinterleave and merge one OFDM symbol at a time, then merge the
// streams and depuncture. Decision-directed LMS channel tracking and the
// flight-evidence EVM run per symbol on the detected LLRs, and the soft-bit
// statistics read the merged stream. Returns the depunctured LLRs (owned by
// r.depBuf).
func (r *Receiver) referenceDataPhase(ctx *dataCtx) ([]float64, error) {
	rx := ctx.rx
	mcs := ctx.mcs
	nSym := ctx.nSym
	detector := ctx.detector
	tracker := ctx.tracker
	result := ctx.result
	ilv, parser, err := streamCodecs(mcs)
	if err != nil {
		return nil, err
	}

	streamLLR := make([][]float64, mcs.NSS)
	perSymbol := make([][]float64, mcs.NSS)
	deinterleaved := make([]float64, mcs.NCBPSS())
	nd := ofdm.HTToneMap.NumData()
	dataH := ctx.h
	trackMapper := modem.NewMapper(mcs.Scheme)
	dataTones := make([][]complex128, len(rx))
	pilotTones := make([][]complex128, len(rx))
	y := make([]complex128, len(rx))
	// Per-subcarrier EVM accumulators, decision-directed: allocated only when
	// flight evidence is being captured for this packet.
	var evAcc []metrics.EVM
	var evMapper *modem.Mapper
	var evBits []byte
	var evX []complex128
	if r.obs.evidence() != nil {
		evAcc = make([]metrics.EVM, nd)
		evMapper = modem.NewMapper(mcs.Scheme)
		evBits = make([]byte, mcs.NBPSCS())
		evX = make([]complex128, mcs.NSS)
	}
	for n := 0; n < nSym; n++ {
		off := ctx.dataStart + n*ctx.dataSymLen + ctx.dataCP - timingBackoff
		for a := range rx {
			if off+ofdm.FFTSize > len(rx[a]) {
				return nil, fmt.Errorf("phy: stream ends inside data symbol %d", n)
			}
			var derr error
			dataTones[a], pilotTones[a], derr = r.htDem.Symbol(rx[a][off:off+ofdm.FFTSize], dataTones[a][:0], pilotTones[a][:0])
			if derr != nil {
				return nil, derr
			}
		}
		// Pilot-based common phase error correction.
		txPilots := make([][]complex128, mcs.NSS)
		for iss := 0; iss < mcs.NSS; iss++ {
			p, perr := ofdm.HTPilots(mcs.NSS, iss, n, 3)
			if perr != nil {
				return nil, perr
			}
			txPilots[iss] = p
		}
		if tracker != nil {
			cpe, terr := tracker.Estimate(pilotTones, txPilots)
			if terr == nil {
				chanest.Correct(dataTones, cpe)
				result.CPETrace = append(result.CPETrace, cpe)
			}
		}
		// Per-subcarrier MIMO detection into per-stream LLRs.
		for iss := range perSymbol {
			perSymbol[iss] = perSymbol[iss][:0]
		}
		for k := 0; k < nd; k++ {
			for a := range rx {
				y[a] = dataTones[a][k]
			}
			var derr error
			perSymbol, derr = detector.Detect(perSymbol, k, y)
			if derr != nil {
				return nil, derr
			}
		}
		if evAcc != nil {
			referenceEVM(evAcc, perSymbol, dataTones, dataH, evMapper, evBits, evX, mcs.NSS, mcs.NBPSCS())
		}
		// Decision-directed LMS channel tracking: slice each stream's
		// detected bits back to constellation points and nudge Ĥ(k)
		// toward the error direction, then refresh the detector weights.
		if r.cfg.TrackChannel {
			nbpsc := mcs.NBPSCS()
			bits := make([]byte, nbpsc)
			xhat := make([]complex128, mcs.NSS)
			mu := complex(trackStep, 0)
			for k := 0; k < nd; k++ {
				var norm float64
				for iss := 0; iss < mcs.NSS; iss++ {
					for b := 0; b < nbpsc; b++ {
						bits[b] = 0
						if perSymbol[iss][k*nbpsc+b] < 0 {
							bits[b] = 1
						}
					}
					xhat[iss] = trackMapper.MapOne(bits)
					norm += real(xhat[iss])*real(xhat[iss]) + imag(xhat[iss])*imag(xhat[iss])
				}
				if norm == 0 {
					continue
				}
				h := dataH[k]
				for a := range rx {
					// e_a = y_a − Σ_s H[a][s]·x̂_s
					var est complex128
					for s := 0; s < mcs.NSS; s++ {
						est += h.At(a, s) * xhat[s]
					}
					e := dataTones[a][k] - est
					for s := 0; s < mcs.NSS; s++ {
						h.Set(a, s, h.At(a, s)+mu*e*conj(xhat[s])/complex(norm, 0))
					}
				}
			}
			if err := detector.Prepare(dataH, ctx.noiseVar); err != nil {
				return nil, err
			}
		}
		// Deinterleave each stream's symbol worth of LLRs.
		for iss := 0; iss < mcs.NSS; iss++ {
			ilv[iss].DeinterleaveLLR(deinterleaved, perSymbol[iss])
			streamLLR[iss] = append(streamLLR[iss], deinterleaved...)
		}
	}

	// Merge streams and depuncture into the shared decode buffer.
	merged, err := parser.MergeLLR(streamLLR)
	if err != nil {
		return nil, err
	}
	if ev := r.obs.evidence(); ev != nil {
		ev.EVM = flight.EVMBins(evAcc, htDataSubcarriers)
		ev.SoftBits = flight.SoftStats(merged)
	}
	dep, err := fec.DepunctureInto(r.depBuf, merged, nSym*mcs.NDBPS(), mcs.Rate)
	if err != nil {
		return nil, err
	}
	r.depBuf = dep
	return dep, nil
}

// referenceEVM folds one symbol's decision-directed error vectors into the
// per-subcarrier accumulators: each stream's LLR signs slice back to bits,
// map to the constellation point x̂, and every antenna's received tone is
// compared against the channel's prediction H·x̂.
func referenceEVM(acc []metrics.EVM, perSymbol [][]float64, dataTones [][]complex128, h []*cmatrix.Matrix, mapper *modem.Mapper, bits []byte, xhat []complex128, nss, nbpsc int) {
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

// referenceReceive is the receive chain with referenceDataPhase in place of
// the batched data phase: the same front half and the same decode tail.
func (r *Receiver) referenceReceive(rx [][]complex128) (*RxResult, error) {
	ctx, err := r.front(rx, nil)
	if err != nil {
		return ctx.result, err
	}
	dep, err := r.referenceDataPhase(&ctx)
	if err != nil {
		return ctx.result, err
	}
	return r.finish(&ctx, dep, nil)
}

// chainRun is what one receive leaves behind for bit-level comparison: the
// result, a copy of the depunctured LLR stream (the exact Viterbi input) and
// the flight evidence (nil without a recorder).
type chainRun struct {
	res *RxResult
	dep []float64
	ev  *flight.Evidence
}

// runChain receives a copy of rxs with the given config, through the
// batched chain or, with reference set, through referenceReceive. With
// evidence set a flight recorder is attached.
func runChain(t *testing.T, rxs [][]complex128, cfg RxConfig, evidence, reference bool) chainRun {
	t.Helper()
	cp := make([][]complex128, len(rxs))
	for a := range rxs {
		cp[a] = append([]complex128(nil), rxs[a]...)
	}
	rx, err := NewReceiver(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if evidence {
		ro := NewRxObs(nil, nil)
		ro.SetFlight(flight.New(flight.Config{Capacity: 1, Dir: t.TempDir()}))
		rx.SetObs(ro)
	}
	var res *RxResult
	if reference {
		res, err = rx.referenceReceive(cp)
	} else {
		res, err = rx.Receive(cp)
	}
	if err != nil {
		t.Fatalf("reference=%v evidence=%v workers=%d: %v", reference, evidence, cfg.Workers, err)
	}
	return chainRun{res: res, dep: append([]float64(nil), rx.depBuf...), ev: rx.obs.evidence()}
}

// makeBurst builds one faded received burst for the MCS with nss+1 antennas,
// on a channel whose taps evolve at the given Doppler rate.
func makeBurst(t *testing.T, mcsIdx, psduLen int, seed int64, dopplerHz float64) ([][]complex128, []byte, int) {
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
	nrx := min(tx.NumChains()+1, 4)
	c, err := channel.New(channel.Config{Model: channel.FlatRayleigh, SNRdB: 45,
		Seed: 900 + seed, NumTX: tx.NumChains(), NumRX: nrx,
		DopplerHz: dopplerHz, SampleRate: ofdm.SampleRate,
		TimingOffset: 250, TrailingSilence: 80})
	if err != nil {
		t.Fatal(err)
	}
	rxs, err := c.Apply(burst)
	if err != nil {
		t.Fatal(err)
	}
	return rxs, psdu, nrx
}

// trackedMCS is the channel-tracking subset of TestBatchMatchesScalarAllMCS:
// MCS 0 (BPSK, 1 stream), 7 (64-QAM, 1), 11 (16-QAM, 2), 17 (QPSK, 3) and
// 27 (16-QAM, 4) cover every constellation and stream count, and NewML
// accepts each, so all three detectors run.
var trackedMCS = map[int]bool{0: true, 7: true, 11: true, 17: true, 27: true}

// TestBatchMatchesScalarAllMCS is the batching correctness property: for
// every MCS and every detector family (ML on each MCS whose joint
// constellation NewML accepts), the batched data phase must produce the
// exact depunctured LLR stream — and therefore the exact decoded PSDU and
// CPE trace — of referenceDataPhase, the symbol-at-a-time chain, at every
// worker count, with flight evidence off and on. With evidence on, the EVM
// bins and soft-bit statistics must match the reference's too. On a
// 900 Hz Doppler burst the trackedMCS subset repeats the check with LMS
// channel tracking. Floats compare by bit pattern, not by a tolerance: the
// batch path reorders no arithmetic.
func TestBatchMatchesScalarAllMCS(t *testing.T) {
	for mcsIdx := 0; mcsIdx <= 31; mcsIdx++ {
		dets := []string{"mmse", "sic"}
		mcs, err := Lookup(mcsIdx)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := mimo.NewML(mcs.Scheme, mcs.NSS); err == nil {
			dets = append(dets, "ml")
		}
		rxs, psdu, nrx := makeBurst(t, mcsIdx, 120, int64(mcsIdx), 0)
		var moving [][]complex128
		var movingPSDU []byte
		if trackedMCS[mcsIdx] {
			moving, movingPSDU, _ = makeBurst(t, mcsIdx, 120, int64(100+mcsIdx), 900)
		}
		for _, det := range dets {
			t.Run(fmt.Sprintf("mcs%d/%s", mcsIdx, det), func(t *testing.T) {
				checkMatchesReference(t, rxs, psdu, RxConfig{NumAntennas: nrx, Detector: det})
			})
			if moving != nil {
				t.Run(fmt.Sprintf("mcs%d/%s/track", mcsIdx, det), func(t *testing.T) {
					checkMatchesReference(t, moving, movingPSDU, RxConfig{NumAntennas: nrx, Detector: det, TrackChannel: true})
				})
			}
		}
	}
}

// checkMatchesReference receives rxs through referenceReceive with evidence
// on, then through the batched chain at workers 1, 4 and NumCPU with
// evidence off and on, and requires every batched run to match the
// reference bit for bit.
func checkMatchesReference(t *testing.T, rxs [][]complex128, psdu []byte, cfg RxConfig) {
	t.Helper()
	ref := runChain(t, rxs, cfg, true, true)
	if !bytes.Equal(ref.res.PSDU, psdu) {
		// A harsh square-channel draw can defeat the highest rates;
		// equivalence (batch == reference) still applies.
		t.Logf("reference chain decoded a wrong PSDU (channel-limited); comparing chains anyway")
	}
	for _, w := range []int{1, 4, runtime.NumCPU()} {
		cfg.Workers = w
		off := runChain(t, rxs, cfg, false, false)
		on := runChain(t, rxs, cfg, true, false)
		if !bytes.Equal(off.res.PSDU, ref.res.PSDU) {
			t.Errorf("workers=%d: PSDU differs from the reference chain", w)
		}
		if i := firstDiff(off.dep, ref.dep); i >= 0 {
			t.Fatalf("workers=%d: LLR %d of %d differs from the reference chain (lengths %d, %d)", w, i, len(ref.dep), len(off.dep), len(ref.dep))
		}
		if i := firstDiff(off.res.CPETrace, ref.res.CPETrace); i >= 0 {
			t.Fatalf("workers=%d: CPE[%d] differs from the reference chain (lengths %d, %d)", w, i, len(off.res.CPETrace), len(ref.res.CPETrace))
		}
		if i := firstDiff(on.dep, off.dep); i >= 0 {
			t.Fatalf("workers=%d: evidence capture changed LLR %d", w, i)
		}
		if len(on.ev.EVM) != len(ref.ev.EVM) || len(on.ev.EVM) == 0 {
			t.Fatalf("workers=%d: %d EVM bins, reference %d", w, len(on.ev.EVM), len(ref.ev.EVM))
		}
		for i, b := range on.ev.EVM {
			rb := ref.ev.EVM[i]
			if b.Subcarrier != rb.Subcarrier || b.Count != rb.Count ||
				firstDiff([]float64{b.EVMRMS, b.SNRdB}, []float64{rb.EVMRMS, rb.SNRdB}) >= 0 {
				t.Fatalf("workers=%d: EVM bin %d = %+v, reference %+v", w, i, b, rb)
			}
		}
		sb, rsb := on.ev.SoftBits, ref.ev.SoftBits
		if sb.Count != rsb.Count || sb.Count == 0 ||
			firstDiff([]float64{sb.MeanAbs, sb.MinAbs, sb.MaxAbs, sb.WeakFrac},
				[]float64{rsb.MeanAbs, rsb.MinAbs, rsb.MaxAbs, rsb.WeakFrac}) >= 0 {
			t.Fatalf("workers=%d: soft bits %+v, reference %+v", w, sb, rsb)
		}
	}
}

// firstDiff returns the first index at which a and b differ in bit pattern
// or length, or −1 when they are identical.
func firstDiff(a, b []float64) int {
	for i := range min(len(a), len(b)) {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

// TestKeptLLRsRecoverMergedStream pins the soft-bit statistics' input: for
// every MCS, depuncturing a merged coded stream and gathering dep's kept
// slots with keptLLRs gives the merged stream back in order, with its
// exactly-zero LLRs.
func TestKeptLLRsRecoverMergedStream(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	const nSym = 3
	for idx := 0; idx <= 31; idx++ {
		mcs, err := Lookup(idx)
		if err != nil {
			t.Fatal(err)
		}
		var rx Receiver
		scat, err := rx.scatterTable(mcs)
		if err != nil {
			t.Fatal(err)
		}
		merged := make([]float64, nSym*mcs.NCBPS())
		for i := range merged {
			if r.Intn(4) != 0 { // a quarter of the LLRs stay exactly 0
				merged[i] = r.NormFloat64()
			}
		}
		dep, err := fec.Depuncture(merged, nSym*mcs.NDBPS(), mcs.Rate)
		if err != nil {
			t.Fatal(err)
		}
		got := keptLLRs(dep, scat, 2*mcs.NDBPS())
		if i := firstDiff(got, merged); i >= 0 {
			t.Fatalf("MCS %d: kept LLR %d differs from the merged stream (lengths %d, %d)", idx, i, len(got), len(merged))
		}
	}
}
