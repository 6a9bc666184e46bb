package phy

import (
	"fmt"
	"sync/atomic"

	"repro/internal/chanest"
	"repro/internal/cmatrix"
	"repro/internal/metrics"
	"repro/internal/mimo"
	"repro/internal/modem"
	"repro/internal/montecarlo"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/ofdm"
)

// batchShardSymbols is the fixed shard granularity of the in-packet
// parallel passes: shard boundaries depend only on the symbol count, never
// on the worker count, so the work decomposition — and with it every output
// write location — is identical at any parallelism level. This is the same
// deterministic-sharding discipline internal/montecarlo imposes on the
// experiment sweeps, applied inside a single packet.
const batchShardSymbols = 4

// growC128 returns s resliced to n elements, reallocating only when its
// capacity is short: a grow-only slab that is warm after the largest packet.
func growC128(s []complex128, n int) []complex128 {
	if cap(s) < n {
		return make([]complex128, n)
	}
	return s[:n]
}

// rxWorker is the private state of one batch-pass worker: an OFDM
// demodulator (own FFT scratch, shared twiddle plan), the per-subcarrier
// received vector, the detector's per-goroutine scratch and the
// stream-major LLR output of one subcarrier. Workers persist on the
// receiver across packets.
type rxWorker struct {
	dem      *ofdm.Demodulator
	y        []complex128
	out      []float64
	det      *mimo.DetectScratch
	detOwner mimo.Detector
}

// ensureWorkers sizes the receiver's persistent worker set for n workers
// serving the given detector and antenna/stream geometry.
func (r *Receiver) ensureWorkers(n, nRx, llrLen int, det mimo.Detector) {
	for len(r.workers) < n {
		r.workers = append(r.workers, &rxWorker{dem: ofdm.NewDemodulator(ofdm.HTToneMap)})
	}
	for _, w := range r.workers[:n] {
		if cap(w.y) < nRx {
			w.y = make([]complex128, nRx)
		}
		w.y = w.y[:nRx]
		if cap(w.out) < llrLen {
			w.out = make([]float64, llrLen)
		}
		w.out = w.out[:llrLen]
		if w.detOwner != det {
			w.det = det.NewScratch()
			w.detOwner = det
		}
	}
}

// dataBatch is the receiver's data phase: pass A FFTs every
// (antenna × symbol) window into one packet-wide tone block, pass B runs
// the (inherently sequential, but cheap) pilot CPE correction symbol by
// symbol, and pass C shards MIMO detection across symbols, scattering each
// LLR straight into its depunctured mother-code slot for the Viterbi
// decoder. Pass D (decisions) reads a symbol's LLRs back as constellation
// decisions for flight-evidence EVM and LMS channel tracking; under
// tracking it runs after each symbol of a serial pass C, otherwise after
// the whole pass. Passes A and C run on montecarlo.Run with fixed-size
// symbol shards writing disjoint output regions, so the result is
// bit-identical at any worker count. The returned dep slice is owned by
// r.depBuf.
func (r *Receiver) dataBatch(ctx *dataCtx, tr *obs.Trace) ([]float64, error) {
	mcs := ctx.mcs
	nRx := len(ctx.rx)
	nd := ofdm.HTToneMap.NumData()
	np := ofdm.NumPilots
	nss, nbpsc := mcs.NSS, mcs.NBPSCS()
	ndbps := mcs.NDBPS()
	nSym := ctx.nSym
	detector := ctx.detector

	scat, err := r.scatterTable(mcs)
	if err != nil {
		return nil, err
	}

	// Packet-wide tone and pilot blocks, one grow-only slab per antenna:
	// tones[a][n*nd+k] is symbol n's data tone k.
	for len(r.tones) < nRx {
		r.tones = append(r.tones, nil)
		r.pilots = append(r.pilots, nil)
	}
	tones := r.tones[:nRx]
	pilots := r.pilots[:nRx]
	for a := 0; a < nRx; a++ {
		tones[a] = growC128(tones[a], nSym*nd)
		pilots[a] = growC128(pilots[a], nSym*np)
	}

	shards := (nSym + batchShardSymbols - 1) / batchShardSymbols
	nw := montecarlo.Workers(r.cfg.Workers)
	if nw > shards {
		nw = shards
	}
	r.ensureWorkers(nw, nRx, nss*nbpsc, detector)
	// Workers draw their persistent state by index; montecarlo calls
	// newWorker exactly once per worker goroutine.
	var widx atomic.Int32
	newW := func() (*rxWorker, error) { return r.workers[int(widx.Add(1))-1], nil }

	// --- Pass A: FFT whole symbol blocks -------------------------------
	tr.Begin(obs.StageDemod)
	rx, dataStart, dataSymLen, dataCP := ctx.rx, ctx.dataStart, ctx.dataSymLen, ctx.dataCP
	//mimonet:hot
	if _, err := montecarlo.Run(shards, nw, newW, func(w *rxWorker, shard int) (struct{}, error) {
		lo := shard * batchShardSymbols
		hi := min(lo+batchShardSymbols, nSym)
		for n := lo; n < hi; n++ {
			off := dataStart + n*dataSymLen + dataCP - timingBackoff
			for a := 0; a < nRx; a++ {
				if off < 0 || off+ofdm.FFTSize > len(rx[a]) {
					return struct{}{}, fmt.Errorf("phy: stream ends inside data symbol %d", n)
				}
				if derr := w.dem.SymbolTo(tones[a][n*nd:(n+1)*nd], pilots[a][n*np:(n+1)*np], rx[a][off:off+ofdm.FFTSize]); derr != nil {
					return struct{}{}, derr
				}
			}
		}
		return struct{}{}, nil
	}); err != nil {
		return nil, err
	}

	// --- Pass B: pilot common-phase-error correction, in symbol order ---
	// The polarity sequence and CPE trace are order-dependent, so this pass
	// stays serial; it is a 4-pilot estimate plus a 52-tone rotation per
	// symbol, a sliver of the data-phase cost.
	if ctx.tracker != nil {
		if cap(r.pilotViews) < nRx {
			r.pilotViews = make([][]complex128, nRx)
			r.toneViews = make([][]complex128, nRx)
		}
		pilotViews := r.pilotViews[:nRx]
		toneViews := r.toneViews[:nRx]
		r.ensureTxPilots(nss)
		for n := 0; n < nSym; n++ {
			for a := 0; a < nRx; a++ {
				pilotViews[a] = pilots[a][n*np : (n+1)*np]
			}
			for iss := 0; iss < nss; iss++ {
				if perr := ofdm.HTPilotsInto(r.txPilots[iss], nss, iss, n, 3); perr != nil {
					return nil, perr
				}
			}
			cpe, terr := ctx.tracker.Estimate(pilotViews, r.txPilots)
			if terr == nil {
				for a := 0; a < nRx; a++ {
					toneViews[a] = tones[a][n*nd : (n+1)*nd]
				}
				chanest.Correct(toneViews, cpe)
				ctx.result.CPETrace = append(ctx.result.CPETrace, cpe)
			}
		}
	}

	// --- Pass C: sharded per-subcarrier detection + fused scatter -------
	tr.Begin(obs.StageDetector)
	if cap(r.depBuf) < 2*ndbps*nSym {
		r.depBuf = make([]float64, 2*ndbps*nSym)
	}
	dep := r.depBuf[:2*ndbps*nSym]
	for i := range dep {
		dep[i] = 0 // punctured slots stay zero (erasures)
	}
	ev := r.obs.evidence()
	track := r.cfg.TrackChannel
	var dec *decisions
	if ev != nil || track {
		dec = newDecisions(mcs, ctx.h, ev != nil, track)
	}
	h, noiseVar := ctx.h, ctx.noiseVar
	cw := nw
	if track {
		// Symbol n+1 is detected with the channel symbol n's decisions
		// updated, so detection runs in symbol order on one worker.
		cw = 1
	}
	widx.Store(0)
	//mimonet:hot
	if _, err := montecarlo.Run(shards, cw, newW, func(w *rxWorker, shard int) (struct{}, error) {
		lo := shard * batchShardSymbols
		hi := min(lo+batchShardSymbols, nSym)
		for n := lo; n < hi; n++ {
			symBase := 2 * ndbps * n
			for k := 0; k < nd; k++ {
				for a := 0; a < nRx; a++ {
					w.y[a] = tones[a][n*nd+k]
				}
				if derr := detector.DetectTo(w.det, w.out, k, w.y); derr != nil {
					return struct{}{}, derr
				}
				kb := k * nbpsc
				for iss := 0; iss < nss; iss++ {
					row := scat[iss]
					ob := iss * nbpsc
					for b := 0; b < nbpsc; b++ {
						dep[symBase+int(row[kb+b])] = w.out[ob+b]
					}
				}
			}
			if track {
				dec.symbol(dep[symBase:symBase+2*ndbps], scat, tones, n*nd)
				if perr := detector.Prepare(h, noiseVar); perr != nil {
					return struct{}{}, perr
				}
			}
		}
		return struct{}{}, nil
	}); err != nil {
		return nil, err
	}

	// Flight evidence. Without tracking, pass D runs here, once the sharded
	// pass C is done; under tracking it already ran after every symbol.
	if ev != nil {
		if !track {
			for n := 0; n < nSym; n++ {
				dec.symbol(dep[2*ndbps*n:2*ndbps*(n+1)], scat, tones, n*nd)
			}
		}
		ev.EVM = flight.EVMBins(dec.evm, htDataSubcarriers)
		ev.SoftBits = flight.SoftStats(keptLLRs(dep, scat, 2*ndbps))
	}
	r.depBuf = dep
	return dep, nil
}

// decisions is pass D of the data phase. Per symbol and data tone it slices
// each stream's LLRs, read back from the symbol's depunctured span through
// the scatter table, to bits and looks up the decided point x̂_s once.
// It then predicts every antenna's tone as est = Σ_s H[k][a][s]·x̂_s, and
// that one prediction feeds both the flight-evidence EVM accumulator of the
// tone and the decision-directed LMS update of row a of H[k]. The update
// touches only row a, so the next antenna's prediction — and with it the
// EVM — still sees H as the previous symbol left it.
type decisions struct {
	h      []*cmatrix.Matrix
	points []complex128 // constellation points by packed bit pattern
	nbpsc  int
	xhat   []complex128
	evm    []metrics.EVM // nil unless flight evidence is captured
	track  bool
}

func newDecisions(mcs MCS, h []*cmatrix.Matrix, evidence, track bool) *decisions {
	d := &decisions{
		h:      h,
		points: modem.NewMapper(mcs.Scheme).Points(),
		nbpsc:  mcs.NBPSCS(),
		xhat:   make([]complex128, mcs.NSS),
		track:  track,
	}
	if evidence {
		d.evm = make([]metrics.EVM, len(h))
	}
	return d
}

// symbol runs pass D over one symbol: span is its depunctured LLR span and
// tones[a][toneBase+k] its CPE-corrected data tone k on antenna a.
func (d *decisions) symbol(span []float64, scat [][]int32, tones [][]complex128, toneBase int) {
	nbpsc := d.nbpsc
	mu := complex(trackStep, 0)
	for k, hk := range d.h {
		var norm float64
		for iss := range d.xhat {
			p := 0
			for b, off := range scat[iss][k*nbpsc : (k+1)*nbpsc] {
				if span[off] < 0 {
					p |= 1 << b
				}
			}
			x := d.points[p]
			d.xhat[iss] = x
			norm += real(x)*real(x) + imag(x)*imag(x)
		}
		for a := range tones {
			y := tones[a][toneBase+k]
			var est complex128
			for s, x := range d.xhat {
				est += hk.At(a, s) * x
			}
			if d.evm != nil {
				d.evm[k].Add(y, est)
			}
			if d.track && norm != 0 {
				// e_a = y_a − Σ_s H[a][s]·x̂_s nudges row a toward the error.
				e := y - est
				for s, x := range d.xhat {
					hk.Set(a, s, hk.At(a, s)+mu*e*conj(x)/complex(norm, 0))
				}
			}
		}
	}
}

// keptLLRs gathers dep's kept (non-punctured) slots — the ones the scatter
// table writes — in order. Depuncturing is monotone, so that is the merged
// coded stream's order. Slots holding 0 are kept: a real LLR can be 0.
func keptLLRs(dep []float64, scat [][]int32, span int) []float64 {
	kept := make([]bool, span)
	perSym := 0
	for _, row := range scat {
		for _, off := range row {
			kept[off] = true
		}
		perSym += len(row)
	}
	out := make([]float64, 0, perSym*(len(dep)/span))
	for base := 0; base < len(dep); base += span {
		for j, ok := range kept {
			if ok {
				out = append(out, dep[base+j])
			}
		}
	}
	return out
}

// ensureTxPilots sizes the reusable per-stream pilot reference slices.
func (r *Receiver) ensureTxPilots(nss int) {
	if len(r.txPilots) >= nss {
		r.txPilots = r.txPilots[:nss]
		return
	}
	r.txPilots = make([][]complex128, nss)
	back := make([]complex128, nss*ofdm.NumPilots)
	for iss := 0; iss < nss; iss++ {
		r.txPilots[iss] = back[iss*ofdm.NumPilots : (iss+1)*ofdm.NumPilots]
	}
}
