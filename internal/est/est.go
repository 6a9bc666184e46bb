// Package est implements the blind second/fourth-moment (M2M4) SNR
// estimator the paper's fine-grained SNR reporting compares against the
// data-aided estimate. That data-aided estimate, the L-LTF split of
// chanest.EstimateLegacy, is the receiver's own, and the EVM it reports
// is metrics.EVM.
package est

import (
	"fmt"
	"math"
)

// M2M4 is the blind second/fourth-moment SNR estimator
// (Pauluzzi & Beaulieu, 1995) for constant-modulus constellations
// (BPSK/QPSK, kurtosis ka = 1) in complex Gaussian noise (kw = 2):
//
//	P̂_s = √(2·M2² − M4),  P̂_n = M2 − P̂_s,  SNR = P̂_s/P̂_n.
//
// For higher-order QAM the signal kurtosis deviates from 1 and the
// estimator becomes biased — the expected shape in experiment E9.
func M2M4(rx []complex128) (float64, error) {
	if len(rx) < 8 {
		return 0, fmt.Errorf("est: need at least 8 samples, got %d", len(rx))
	}
	var m2, m4 float64
	for _, v := range rx {
		p := real(v)*real(v) + imag(v)*imag(v)
		m2 += p
		m4 += p * p
	}
	n := float64(len(rx))
	m2 /= n
	m4 /= n
	disc := 2*m2*m2 - m4
	if disc <= 0 {
		return 0, nil // all noise, SNR ≈ 0
	}
	ps := math.Sqrt(disc)
	pn := m2 - ps
	if pn <= 0 {
		return math.Inf(1), nil
	}
	return ps / pn, nil
}

// DB converts a linear SNR to decibels (−Inf for nonpositive input).
func DB(snr float64) float64 {
	if snr <= 0 {
		return math.Inf(-1)
	}
	return 10 * math.Log10(snr)
}
