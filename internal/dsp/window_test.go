package dsp

import (
	"math"
	"testing"
)

func TestWindows(t *testing.T) {
	w := Hann(9)
	if len(w) != 9 {
		t.Fatalf("Hann: length %d", len(w))
	}
	if math.Abs(w[0]) > 1e-12 || math.Abs(w[8]) > 1e-12 {
		t.Errorf("Hann: endpoints %g, %g; want 0", w[0], w[8])
	}
	if math.Abs(w[4]-1) > 0.01 {
		t.Errorf("Hann: midpoint %g, want ≈ 1", w[4])
	}
	for i := 0; i < 4; i++ {
		if math.Abs(w[i]-w[8-i]) > 1e-12 {
			t.Errorf("Hann: asymmetric at %d", i)
		}
	}
	if one := Hann(1); len(one) != 1 || one[0] != 1 {
		t.Errorf("Hann(1) = %v, want [1]", one)
	}
}

func TestApplyWindow(t *testing.T) {
	x := []complex128{2, 2i}
	ApplyWindow(x, []float64{0.5, 2})
	if x[0] != 1 || x[1] != 4i {
		t.Errorf("ApplyWindow: got %v", x)
	}
}
