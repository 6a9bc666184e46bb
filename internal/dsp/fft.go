// Package dsp provides the signal-processing primitives used by the MIMONet
// transceiver: power-of-two FFTs (a generated straight-line kernel at the
// OFDM size 64, radix-2 loops otherwise), correlation, FIR filtering, window
// functions and complex vector utilities.
//
// All routines operate on []complex128. Hot-path types (FFT plans, filters)
// preallocate their working state so steady-state operation is allocation
// free, in the style of gopacket's reusable decoders.
package dsp

import (
	"fmt"
	"math"
	"math/cmplx"
)

// FFT is a reusable plan for forward and inverse transforms of a fixed
// power-of-two size. A plan is cheap to create but caches twiddle factors and
// the bit-reversal permutation, so callers that transform many blocks should
// create one plan and reuse it. A plan is safe for concurrent use: Forward
// and Inverse do not mutate plan state.
//
// Size-64 plans run fft64, generated by internal/fftgen: the same radix-2
// butterflies with the same twiddle entries as the loop other sizes run,
// scheduled as three passes that each keep four values in locals across two
// stages. Only the order of independent butterflies changes, so the output
// is bit-identical to the loop's.
type FFT struct {
	n          int
	logN       uint
	rev        []int        // bit-reversal permutation
	twiddle    []complex128 // e^{-2πi k/n} for k in [0,n/2)
	twiddleInv []complex128 // conjugates, so Inverse skips the per-butterfly Conj
}

// NewFFT returns a plan for transforms of length n. n must be a power of two
// and at least 2.
func NewFFT(n int) (*FFT, error) {
	if n < 2 || n&(n-1) != 0 {
		return nil, fmt.Errorf("dsp: FFT size %d is not a power of two ≥ 2", n)
	}
	logN := uint(0)
	for 1<<logN < n {
		logN++
	}
	f := &FFT{
		n:          n,
		logN:       logN,
		rev:        make([]int, n),
		twiddle:    make([]complex128, n/2),
		twiddleInv: make([]complex128, n/2),
	}
	for i := 0; i < n; i++ {
		f.rev[i] = reverseBits(i, logN)
	}
	for k := 0; k < n/2; k++ {
		angle := -2 * math.Pi * float64(k) / float64(n)
		f.twiddle[k] = cmplx.Exp(complex(0, angle))
		f.twiddleInv[k] = cmplx.Conj(f.twiddle[k])
	}
	return f, nil
}

// MustFFT is like NewFFT but panics on error. It is intended for package-level
// plans of known-good sizes.
func MustFFT(n int) *FFT {
	f, err := NewFFT(n)
	if err != nil {
		panic(err)
	}
	return f
}

// Size returns the transform length of the plan.
func (f *FFT) Size() int { return f.n }

func reverseBits(x int, bits uint) int {
	r := 0
	for i := uint(0); i < bits; i++ {
		r = (r << 1) | (x & 1)
		x >>= 1
	}
	return r
}

// Forward computes the DFT of src into dst. dst and src must both have length
// Size(); they may be the same slice. No scaling is applied (the conventional
// unscaled forward transform).
func (f *FFT) Forward(dst, src []complex128) {
	f.transform(dst, src, false)
}

// Inverse computes the inverse DFT of src into dst, scaled by 1/n so that
// Inverse(Forward(x)) == x. dst and src may be the same slice.
func (f *FFT) Inverse(dst, src []complex128) {
	f.transform(dst, src, true)
	scale := complex(1/float64(f.n), 0)
	for i := range dst {
		dst[i] *= scale
	}
}

//go:generate go run ./internal/fftgen

func (f *FFT) transform(dst, src []complex128, inverse bool) {
	n := f.n
	if len(dst) != n || len(src) != n {
		panic(fmt.Sprintf("dsp: FFT length mismatch: plan %d, dst %d, src %d", n, len(dst), len(src)))
	}
	// The direction only selects which precomputed twiddle table to read;
	// the butterflies are branch-free.
	twiddle := f.twiddle
	if inverse {
		twiddle = f.twiddleInv
	}
	if n == 64 {
		fft64((*[64]complex128)(dst), (*[64]complex128)(src), (*[32]complex128)(twiddle))
		return
	}
	f.radix2(dst, src, twiddle)
}

// radix2 is the iterative Cooley-Tukey transform of src into dst with the
// given twiddle table. It serves every size but 64, and is the oracle fft64
// is tested against.
func (f *FFT) radix2(dst, src, twiddle []complex128) {
	n := f.n
	// Bit-reversal copy. When dst and src alias we must permute in place.
	if &dst[0] == &src[0] {
		for i, j := range f.rev {
			if j > i {
				dst[i], dst[j] = dst[j], dst[i]
			}
		}
	} else {
		for i, j := range f.rev {
			dst[i] = src[j]
		}
	}
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		step := n / size
		for start := 0; start < n; start += size {
			k := 0
			for j := start; j < start+half; j++ {
				t := twiddle[k] * dst[j+half]
				dst[j+half] = dst[j] - t
				dst[j] = dst[j] + t
				k += step
			}
		}
	}
}

// FFTShift reorders a spectrum so that the zero-frequency bin sits in the
// middle: the first half and second half of src are swapped into dst.
// dst and src must have equal even length and must not partially overlap
// (identical slices are allowed).
func FFTShift(dst, src []complex128) {
	n := len(src)
	if len(dst) != n {
		panic("dsp: FFTShift length mismatch")
	}
	h := n / 2
	if &dst[0] == &src[0] {
		for i := 0; i < h; i++ {
			dst[i], dst[i+h] = dst[i+h], dst[i]
		}
		return
	}
	copy(dst[:h], src[h:])
	copy(dst[h:], src[:h])
}
