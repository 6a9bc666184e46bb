package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

const eps = 1e-9

func approxEqualC(a, b complex128, tol float64) bool {
	return cmplx.Abs(a-b) <= tol
}

func approxEqualVec(a, b []complex128, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !approxEqualC(a[i], b[i], tol) {
			return false
		}
	}
	return true
}

// naiveDFT is the O(n²) reference transform.
func naiveDFT(x []complex128, inverse bool) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for k := 0; k < n; k++ {
		var s complex128
		for t := 0; t < n; t++ {
			angle := sign * 2 * math.Pi * float64(k) * float64(t) / float64(n)
			s += x[t] * cmplx.Exp(complex(0, angle))
		}
		if inverse {
			s /= complex(float64(n), 0)
		}
		out[k] = s
	}
	return out
}

func randVec(r *rand.Rand, n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(r.NormFloat64(), r.NormFloat64())
	}
	return x
}

func TestNewFFTRejectsBadSizes(t *testing.T) {
	for _, n := range []int{-4, 0, 1, 3, 6, 100} {
		if _, err := NewFFT(n); err == nil {
			t.Errorf("NewFFT(%d): want error, got nil", n)
		}
	}
	for _, n := range []int{2, 4, 64, 1024} {
		if _, err := NewFFT(n); err != nil {
			t.Errorf("NewFFT(%d): unexpected error %v", n, err)
		}
	}
}

func TestFFTMatchesNaiveDFT(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, n := range []int{2, 4, 8, 16, 64, 128} {
		f := MustFFT(n)
		x := randVec(r, n)
		got := make([]complex128, n)
		f.Forward(got, x)
		want := naiveDFT(x, false)
		if !approxEqualVec(got, want, 1e-8) {
			t.Errorf("n=%d: forward FFT does not match naive DFT", n)
		}
		f.Inverse(got, x)
		want = naiveDFT(x, true)
		if !approxEqualVec(got, want, 1e-8) {
			t.Errorf("n=%d: inverse FFT does not match naive DFT", n)
		}
	}
}

func TestFFTRoundTripProperty(t *testing.T) {
	f := MustFFT(64)
	r := rand.New(rand.NewSource(2))
	prop := func(seed int64) bool {
		_ = seed
		x := randVec(r, 64)
		y := make([]complex128, 64)
		z := make([]complex128, 64)
		f.Forward(y, x)
		f.Inverse(z, y)
		return approxEqualVec(z, x, 1e-9)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestFFTInPlace(t *testing.T) {
	f := MustFFT(32)
	r := rand.New(rand.NewSource(3))
	x := randVec(r, 32)
	want := make([]complex128, 32)
	f.Forward(want, x)
	f.Forward(x, x) // aliased
	if !approxEqualVec(x, want, eps) {
		t.Error("in-place forward FFT differs from out-of-place")
	}
}

// TestFFT64MatchesRadix2 holds the generated 64-point kernel to the radix-2
// loop bit for bit, forward and inverse, out of place and in place. Besides
// random vectors it feeds vectors of exact zeros, each component −0 with
// probability 7/8 and +0 otherwise: skipping any of 40 of the first pass's
// 48 multiplies by w[0] = 1 flips the sign of some zero bin.
func TestFFT64MatchesRadix2(t *testing.T) {
	f := MustFFT(64)
	r := rand.New(rand.NewSource(7))
	negZero := math.Copysign(0, -1)
	signedZero := func() float64 {
		if r.Intn(8) == 0 {
			return 0
		}
		return negZero
	}
	var inputs [][]complex128
	for v := 0; v < 50; v++ {
		inputs = append(inputs, randVec(r, 64))
	}
	for v := 0; v < 400; v++ {
		x := make([]complex128, 64)
		for i := range x {
			x[i] = complex(signedZero(), signedZero())
		}
		inputs = append(inputs, x)
	}
	for v, x := range inputs {
		for _, inverse := range []bool{false, true} {
			twiddle := f.twiddle
			if inverse {
				twiddle = f.twiddleInv
			}
			want := make([]complex128, 64)
			f.radix2(want, x, twiddle)
			got := make([]complex128, 64)
			f.transform(got, x, inverse)
			inPlace := append([]complex128(nil), x...)
			f.transform(inPlace, inPlace, inverse)
			if i := firstBitDiff(got, want); i >= 0 {
				t.Fatalf("input %d inverse=%v dst != src: bin %d = %v, radix-2 loop gives %v", v, inverse, i, got[i], want[i])
			}
			if i := firstBitDiff(inPlace, want); i >= 0 {
				t.Fatalf("input %d inverse=%v dst == src: bin %d = %v, radix-2 loop gives %v", v, inverse, i, inPlace[i], want[i])
			}
		}
	}
}

// firstBitDiff returns the first index where a and b differ in any bit, or -1.
func firstBitDiff(a, b []complex128) int {
	for i := range a {
		if math.Float64bits(real(a[i])) != math.Float64bits(real(b[i])) ||
			math.Float64bits(imag(a[i])) != math.Float64bits(imag(b[i])) {
			return i
		}
	}
	return -1
}

func TestFFTParseval(t *testing.T) {
	f := MustFFT(64)
	r := rand.New(rand.NewSource(4))
	x := randVec(r, 64)
	y := make([]complex128, 64)
	f.Forward(y, x)
	et, ef := Energy(x), Energy(y)/64
	if math.Abs(et-ef) > 1e-9*et {
		t.Errorf("Parseval violated: time %g freq %g", et, ef)
	}
}

func TestFFTImpulseAndTone(t *testing.T) {
	f := MustFFT(8)
	// Impulse -> flat spectrum.
	x := make([]complex128, 8)
	x[0] = 1
	y := make([]complex128, 8)
	f.Forward(y, x)
	for k, v := range y {
		if !approxEqualC(v, 1, eps) {
			t.Errorf("impulse bin %d = %v, want 1", k, v)
		}
	}
	// Single tone at bin 2 -> impulse at bin 2.
	for i := range x {
		x[i] = cmplx.Exp(complex(0, 2*math.Pi*2*float64(i)/8))
	}
	f.Forward(y, x)
	for k, v := range y {
		want := complex128(0)
		if k == 2 {
			want = 8
		}
		if !approxEqualC(v, want, 1e-9) {
			t.Errorf("tone bin %d = %v, want %v", k, v, want)
		}
	}
}

func TestFFTLengthMismatchPanics(t *testing.T) {
	f := MustFFT(8)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on length mismatch")
		}
	}()
	f.Forward(make([]complex128, 4), make([]complex128, 8))
}

func BenchmarkFFT64(b *testing.B) {
	f := MustFFT(64)
	x := randVec(rand.New(rand.NewSource(5)), 64)
	y := make([]complex128, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f.Forward(y, x)
	}
}

func BenchmarkFFT1024(b *testing.B) {
	f := MustFFT(1024)
	x := randVec(rand.New(rand.NewSource(6)), 1024)
	y := make([]complex128, 1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f.Forward(y, x)
	}
}
