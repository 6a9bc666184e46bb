package dsp

import "math/cmplx"

// Power returns the mean squared magnitude of x, i.e. the average signal
// power. It returns 0 for an empty slice.
//
//mimonet:testonly-ok oracle: the channel and preamble tests measure signal power with it
func Power(x []complex128) float64 {
	if len(x) == 0 {
		return 0
	}
	return Energy(x) / float64(len(x))
}

// Energy returns the summed squared magnitude of x.
func Energy(x []complex128) float64 {
	var e float64
	for _, v := range x {
		re, im := real(v), imag(v)
		e += re*re + im*im
	}
	return e
}

// Scale multiplies every element of x by the real factor a, in place.
func Scale(x []complex128, a float64) {
	c := complex(a, 0)
	for i := range x {
		x[i] *= c
	}
}

// Rotate applies a progressive phase rotation exp(j·(phase0 + i·phaseStep))
// to x in place. It is used to impose or correct a carrier frequency offset:
// phaseStep = 2π·f_off/f_sample.
func Rotate(x []complex128, phase0, phaseStep float64) {
	// Recurrence instead of per-sample cmplx.Exp: rot *= step.
	rot := cmplx.Exp(complex(0, phase0))
	step := cmplx.Exp(complex(0, phaseStep))
	for i := range x {
		x[i] *= rot
		rot *= step
	}
}
