package phy

import (
	"fmt"
	"math"

	"repro/internal/dsp"
	"repro/internal/fec"
	"repro/internal/mimo"
	"repro/internal/ofdm"
	"repro/internal/preamble"
)

// Transmit-side spatial steering: the multi-user downlink drives the
// transmitter through a per-subcarrier mapping Q (mimo.Steering) between
// the N_SS space-time streams and N_TX ≥ N_SS transmit chains, so a
// precoding access point points each stream at its station. Every HT field
// — HT-STF, HT-LTFs, data symbols and their pilots — passes through Q,
// which makes the receiver's HT-LTF channel estimate the effective channel
// H·Q and leaves the whole receive chain unchanged. The legacy preamble
// stays omnidirectional (same content on every chain with legacy CSD), as
// for any beamformed PPDU.
//
// Steered streams skip the per-stream HT cyclic shifts: CSD exists to
// decorrelate identical waveforms radiated from co-located antennas, and
// precoded chains are already distinct linear mixtures. Steering is
// long-GI only.

// SetSteering installs (or, with nil, removes) a transmit spatial mapping.
// The steering's stream count must match the MCS's N_SS and its bin count
// the OFDM FFT size.
//
//mimonet:testonly-ok planned caller: the E25 real-sample check runs mumimo precoders through the transmitter
func (t *Transmitter) SetSteering(q *mimo.Steering) error {
	if q == nil {
		t.steer = nil
		return nil
	}
	if q.NSS() != t.mcs.NSS {
		return fmt.Errorf("phy: steering carries %d streams, MCS%d has %d", q.NSS(), t.mcs.Index, t.mcs.NSS)
	}
	if q.Bins() != ofdm.FFTSize {
		return fmt.Errorf("phy: steering spans %d bins, want %d", q.Bins(), ofdm.FFTSize)
	}
	if t.cfg.ShortGI {
		return fmt.Errorf("phy: steering supports the long guard interval only")
	}
	t.steer = q
	return nil
}

// transmitSteered is the steered data path: per OFDM symbol, each stream's
// frequency-domain symbol (data tones + its pilots, 1/√N_SS power split) is
// mixed through Q into per-chain bins, and each chain is OFDM-modulated
// independently.
func (t *Transmitter) transmitSteered(burst [][]complex128, psdu []byte) error {
	nss := t.mcs.NSS
	ntx := t.steer.NTX()
	dataBits := t.assembleDataBits(psdu)
	coded := fec.Encode(dataBits, t.mcs.Rate)
	streams, err := t.parser.Parse(coded)
	if err != nil {
		return err
	}
	nSym := t.mcs.NumSymbols(len(psdu))
	ncbpss := t.mcs.NCBPSS()
	scale := complex(1/math.Sqrt(float64(nss)), 0)
	interleaved := make([]byte, ncbpss)
	freqS := newGrid(nss)
	chainBins := newGrid(ntx)
	sVec := make([]complex128, nss)
	cVec := make([]complex128, ntx)
	sym := make([]complex128, ofdm.SymbolLen)
	tmap := t.mod.Tones()
	for n := 0; n < nSym; n++ {
		for iss := 0; iss < nss; iss++ {
			t.ilv[iss].Interleave(interleaved, streams[iss][n*ncbpss:(n+1)*ncbpss])
			tones, err := t.mapper.Map(interleaved)
			if err != nil {
				return err
			}
			pilots, err := ofdm.HTPilots(nss, iss, n, 3)
			if err != nil {
				return err
			}
			zeroRow(freqS[iss])
			for i, b := range tmap.Data {
				freqS[iss][b] = tones[i] * scale
			}
			for i, b := range tmap.Pilot {
				freqS[iss][b] = pilots[i] * scale
			}
		}
		if err := t.mixGrid(freqS, chainBins, sVec, cVec); err != nil {
			return err
		}
		off := PreambleLen(nss) + n*ofdm.SymbolLen
		for c := 0; c < ntx; c++ {
			if err := t.mod.SymbolFromBins(sym, chainBins[c]); err != nil {
				return err
			}
			place(burst[c], off, sym, 1)
		}
	}
	return nil
}

// buildSteeredHTFields writes the HT-STF and HT-LTFs through the steering
// mapping. The HT-LTF count follows N_SS — the receiver estimates one
// effective column per stream — regardless of the chain count.
func (t *Transmitter) buildSteeredHTFields(burst [][]complex128) error {
	nss := t.mcs.NSS
	ntx := t.steer.NTX()
	scale := complex(1/math.Sqrt(float64(nss)), 0)
	freqS := newGrid(nss)
	chainBins := newGrid(ntx)
	sVec := make([]complex128, nss)
	cVec := make([]complex128, ntx)

	// HT-STF: every stream carries the same STF sequence; the mix makes
	// each chain's version distinct. 52-tone normalization and periodic
	// 80-sample structure, as in the unsteered field.
	for iss := 0; iss < nss; iss++ {
		for b, v := range preamble.LSTFFreq {
			freqS[iss][b] = v * scale
		}
	}
	if err := t.mixGrid(freqS, chainBins, sVec, cVec); err != nil {
		return err
	}
	fft := dsp.MustFFT(ofdm.FFTSize)
	base := make([]complex128, ofdm.FFTSize)
	for c := 0; c < ntx; c++ {
		fft.Inverse(base, chainBins[c])
		dsp.Scale(base, float64(ofdm.FFTSize)/math.Sqrt(52))
		for i := 0; i < preamble.HTSTFLen; i++ {
			burst[c][OffHTSTF+i] = base[i%ofdm.FFTSize]
		}
	}

	// HT-LTFs: stream iss transmits HTLTF·P[iss][n]; the 56-tone
	// normalization matches the HT data modulator, so SymbolFromBins
	// reproduces HTLTFSymbol's scaling.
	sym := make([]complex128, ofdm.SymbolLen)
	nltf := preamble.NumHTLTF(nss)
	for n := 0; n < nltf; n++ {
		for iss := 0; iss < nss; iss++ {
			p := complex(preamble.PMatrix[iss][n], 0) * scale
			zeroRow(freqS[iss])
			for b, v := range preamble.HTLTFFreq {
				freqS[iss][b] = v * p
			}
		}
		if err := t.mixGrid(freqS, chainBins, sVec, cVec); err != nil {
			return err
		}
		for c := 0; c < ntx; c++ {
			if err := t.mod.SymbolFromBins(sym, chainBins[c]); err != nil {
				return err
			}
			place(burst[c], OffHTLTF+n*preamble.HTLTFLen, sym, 1)
		}
	}
	return nil
}

// mixGrid applies the steering bin-by-bin: chainBins[c][b] = Σ_s
// Q[b][c][s]·freqS[s][b].
func (t *Transmitter) mixGrid(freqS, chainBins [][]complex128, sVec, cVec []complex128) error {
	for b := 0; b < ofdm.FFTSize; b++ {
		for iss := range freqS {
			sVec[iss] = freqS[iss][b]
		}
		if err := t.steer.Mix(b, sVec, cVec); err != nil {
			return err
		}
		for c := range chainBins {
			chainBins[c][b] = cVec[c]
		}
	}
	return nil
}

func newGrid(n int) [][]complex128 {
	g := make([][]complex128, n)
	for i := range g {
		g[i] = make([]complex128, ofdm.FFTSize)
	}
	return g
}

func zeroRow(r []complex128) {
	for i := range r {
		r[i] = 0
	}
}
