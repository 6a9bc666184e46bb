package dsp

import "math/cmplx"

// AutoCorrelator computes a running lag-L autocorrelation and power estimate
// over a window of W samples:
//
//	corr(n)  = Σ_{i=n-W+1}^{n} x[i] * conj(x[i+L])
//	power(n) = Σ_{i=n-W+1}^{n} |x[i+L]|²
//
// using O(1) sliding updates. This is the Schmidl & Cox style detector metric
// used for packet detection on the periodic STF, and the γ/Φ statistics of
// the Van de Beek estimator are computed the same way.
//
// The zero value is not usable; create one with NewAutoCorrelator.
type AutoCorrelator struct {
	lag    int
	buf    []complex128 // delay line of the last window+lag samples
	head   int
	filled int
	corr   complex128
	power  float64
}

// NewAutoCorrelator returns a correlator with the given lag L and averaging
// window W, both of which must be positive.
func NewAutoCorrelator(lag, window int) *AutoCorrelator {
	if lag <= 0 || window <= 0 {
		panic("dsp: AutoCorrelator lag and window must be positive")
	}
	return &AutoCorrelator{
		lag: lag,
		buf: make([]complex128, lag+window),
	}
}

// Reset clears the correlator state.
func (a *AutoCorrelator) Reset() {
	for i := range a.buf {
		a.buf[i] = 0
	}
	a.head, a.filled = 0, 0
	a.corr, a.power = 0, 0
}

// Push feeds one sample and returns the updated correlation and power sums.
// The sums are meaningful once Primed reports true.
func (a *AutoCorrelator) Push(x complex128) (corr complex128, power float64) {
	n := len(a.buf)
	// Oldest sample pair leaving the window: x[n-W-L] paired with x[n-W].
	if a.filled == n {
		oldA := a.buf[a.head]             // x[t-(W+L)]
		oldB := a.buf[(a.head+a.lag)%n]   // x[t-W]
		a.corr -= oldA * cmplx.Conj(oldB) // remove pair from corr sum
		re, im := real(oldB), imag(oldB)  //
		a.power -= re*re + im*im          // remove from power sum
	} else {
		a.filled++
	}
	a.buf[a.head] = x
	a.head = (a.head + 1) % n
	// Newest pair entering: x[t-L] with x[t].
	if a.filled >= a.lag+1 {
		prev := a.buf[(a.head-1-a.lag+2*n)%n]
		a.corr += prev * cmplx.Conj(x)
		re, im := real(x), imag(x)
		a.power += re*re + im*im
	}
	return a.corr, a.power
}

// Primed reports whether the delay line is full, i.e. the sums cover a
// complete window.
func (a *AutoCorrelator) Primed() bool { return a.filled == len(a.buf) }
