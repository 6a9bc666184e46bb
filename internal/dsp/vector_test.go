package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

func TestPowerEnergyRMS(t *testing.T) {
	x := []complex128{1, 1i, -1, -1i}
	if got := Energy(x); math.Abs(got-4) > eps {
		t.Errorf("Energy = %g, want 4", got)
	}
	if got := Power(x); math.Abs(got-1) > eps {
		t.Errorf("Power = %g, want 1", got)
	}
	if got := Power(nil); got != 0 {
		t.Errorf("Power(nil) = %g, want 0", got)
	}
}

func TestScaleAddMul(t *testing.T) {
	x := []complex128{1 + 1i, 2}
	Scale(x, 2)
	if x[0] != 2+2i || x[1] != 4 {
		t.Errorf("Scale: got %v", x)
	}
}

func TestRotateImposesCFO(t *testing.T) {
	// A rotation with phaseStep ω turns a DC signal into a tone at ω.
	n := 128
	x := make([]complex128, n)
	for i := range x {
		x[i] = 1
	}
	const step = 0.1
	Rotate(x, 0.5, step)
	for i := range x {
		want := cmplx.Exp(complex(0, 0.5+step*float64(i)))
		if !approxEqualC(x[i], want, 1e-9) {
			t.Fatalf("Rotate sample %d = %v, want %v", i, x[i], want)
		}
	}
}

func TestAutoCorrelatorMatchesBruteForce(t *testing.T) {
	const lag, window = 16, 32
	r := rand.New(rand.NewSource(7))
	x := randVec(r, 200)
	ac := NewAutoCorrelator(lag, window)
	for n, v := range x {
		corr, power := ac.Push(v)
		if !ac.Primed() {
			continue
		}
		// Brute force over the last `window` pairs ending at n.
		var wantC complex128
		var wantP float64
		for i := n - window + 1; i <= n; i++ {
			wantC += x[i-lag] * cmplx.Conj(x[i])
			wantP += real(x[i])*real(x[i]) + imag(x[i])*imag(x[i])
		}
		if !approxEqualC(corr, wantC, 1e-9) {
			t.Fatalf("n=%d: corr = %v, want %v", n, corr, wantC)
		}
		if math.Abs(power-wantP) > 1e-9 {
			t.Fatalf("n=%d: power = %g, want %g", n, power, wantP)
		}
	}
}

func TestAutoCorrelatorDetectsPeriodicity(t *testing.T) {
	// A signal with period L has |corr| ≈ power once the window sees two
	// periods; white noise does not.
	const lag, window = 16, 64
	r := rand.New(rand.NewSource(8))
	period := randVec(r, lag)
	ac := NewAutoCorrelator(lag, window)
	var corr complex128
	var power float64
	for i := 0; i < 10*lag; i++ {
		corr, power = ac.Push(period[i%lag])
	}
	ratio := cmplx.Abs(corr) / power
	if ratio < 0.999 {
		t.Errorf("periodic signal metric = %g, want ≈ 1", ratio)
	}
	ac.Reset()
	noise := randVec(r, 4096)
	var sum float64
	count := 0
	for _, v := range noise {
		c, p := ac.Push(v)
		if ac.Primed() {
			sum += cmplx.Abs(c) / p
			count++
		}
	}
	if mean := sum / float64(count); mean > 0.5 {
		t.Errorf("noise metric mean = %g, want well below 1", mean)
	}
}
