package mumimo

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/cmatrix"
	"repro/internal/sounding"
)

// flatChannel builds nsc identical copies of h — a frequency-flat estimate.
func flatChannel(h *cmatrix.Matrix, nsc int) []*cmatrix.Matrix {
	out := make([]*cmatrix.Matrix, nsc)
	for i := range out {
		out[i] = h.Clone()
	}
	return out
}

// rayleigh draws an i.i.d. CN(0,1) channel matrix.
func rayleigh(r *rand.Rand, rows, cols int) *cmatrix.Matrix {
	m := cmatrix.New(rows, cols)
	for i := range m.Data {
		m.Data[i] = complex(r.NormFloat64(), r.NormFloat64()) * complex(math.Sqrt(0.5), 0)
	}
	return m
}

func TestZFPrecodeDiagonalizes(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		h := rayleigh(r, 2, 2) // two single-antenna stations stacked
		w, err := ZFPrecode(h)
		if err != nil {
			t.Fatal(err)
		}
		e := cmatrix.Mul(h, w)
		for i := 0; i < 2; i++ {
			for j := 0; j < 2; j++ {
				mag := sqAbs(e.At(i, j))
				if i == j && mag < 1e-12 {
					t.Fatalf("trial %d: signal entry (%d,%d) collapsed", trial, i, j)
				}
				if i != j && mag > 1e-18 {
					t.Fatalf("trial %d: ZF leakage (%d,%d) = %g", trial, i, j, mag)
				}
			}
		}
		// Unit-norm columns: transmit power is explicit.
		for j := 0; j < w.Cols; j++ {
			var n float64
			for i := 0; i < w.Rows; i++ {
				n += sqAbs(w.At(i, j))
			}
			if math.Abs(n-1) > 1e-9 {
				t.Fatalf("trial %d: column %d norm² %g", trial, j, n)
			}
		}
	}
}

func TestZFPrecodeRejectsOverload(t *testing.T) {
	if _, err := ZFPrecode(rayleigh(rand.New(rand.NewSource(2)), 3, 2)); err == nil {
		t.Error("3 streams over 2 antennas must fail")
	}
	par := cmatrix.FromRows([][]complex128{{1, 1}, {1, 1}})
	if _, err := ZFPrecode(par); err == nil {
		t.Error("rank-1 stacked channel must fail, not divide by zero")
	}
}

func TestPostPrecodingSINR(t *testing.T) {
	// Orthogonal stacked channel: ZF costs nothing, each stream's SINR is
	// snr/K exactly (equal power split, no leakage).
	h := cmatrix.Identity(2)
	w, err := ZFPrecode(h)
	if err != nil {
		t.Fatal(err)
	}
	sinr, err := PostPrecodingSINR(h, w, 100)
	if err != nil {
		t.Fatal(err)
	}
	for s, v := range sinr {
		if math.Abs(v-50) > 1e-6 {
			t.Errorf("stream %d SINR %g, want 50", s, v)
		}
	}
	// A correlated channel must pay: same SNR, strictly lower SINR through
	// the diagonal gain loss.
	corr := cmatrix.FromRows([][]complex128{{1, 0.9}, {0.9, 1}})
	wc, err := ZFPrecode(corr)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := PostPrecodingSINR(corr, wc, 100)
	if err != nil {
		t.Fatal(err)
	}
	if sc[0] >= 50 || sc[1] >= 50 {
		t.Errorf("correlated channel SINR %v, want < 50", sc)
	}
}

func TestOrthogonality(t *testing.T) {
	a := cmatrix.FromRows([][]complex128{{1, 0}})
	b := cmatrix.FromRows([][]complex128{{0, 1}})
	if o := Orthogonality(a, b); o > 1e-12 {
		t.Errorf("orthogonal rows scored %g", o)
	}
	if o := Orthogonality(a, a); math.Abs(o-1) > 1e-12 {
		t.Errorf("parallel rows scored %g", o)
	}
	if o := Orthogonality(a, nil); o != 1 {
		t.Errorf("nil channel scored %g, want 1 (inseparable)", o)
	}
}

func TestCacheStalenessEviction(t *testing.T) {
	fake := clock.NewFake(time.Unix(0, 0))
	c := NewCache(fake, 100*time.Millisecond)
	h := flatChannel(cmatrix.Identity(2), 8)
	if _, err := c.Update(7, h, 100); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(7); !ok {
		t.Fatal("fresh entry must be visible")
	}
	fake.Advance(99 * time.Millisecond)
	if _, ok := c.Get(7); !ok {
		t.Fatal("entry inside the age bound must stay visible")
	}
	fake.Advance(2 * time.Millisecond)
	if _, ok := c.Get(7); ok {
		t.Fatal("stale entry must not be served")
	}
	if age, ok := c.Age(7); !ok || age != 101*time.Millisecond {
		t.Errorf("Age = %v/%v, want 101ms/true", age, ok)
	}
	if n := c.Sweep(); n != 1 {
		t.Errorf("Sweep evicted %d, want 1", n)
	}
	if n := len(c.entries); n != 0 {
		t.Errorf("%d entries after sweep, want 0", n)
	}
}

func TestCacheFeedbackRoundTrip(t *testing.T) {
	c := NewCache(clock.NewFake(time.Unix(0, 0)), time.Second)
	h := flatChannel(cmatrix.FromRows([][]complex128{{1, 0.1}, {0.1, 1}}), 16)
	fb, err := sounding.Quantize(h, 1)
	if err != nil {
		t.Fatal(err)
	}
	e, err := c.UpdateFeedback(3, fb, 100)
	if err != nil {
		t.Fatal(err)
	}
	if e.Report.RecommendedStreams != 2 {
		t.Errorf("quantized round trip recommended %d streams, want 2", e.Report.RecommendedStreams)
	}
	if e.Mean() == nil || e.Mean().Rows != 2 {
		t.Errorf("representative matrix missing: %v", e.Mean())
	}
	// An all-dead report must not displace the cached estimate.
	deadFb, err := sounding.Quantize(flatChannel(cmatrix.New(2, 2), 16), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.UpdateFeedback(3, deadFb, 100); err == nil {
		t.Error("all-dead feedback must be rejected")
	}
	if _, ok := c.Get(3); !ok {
		t.Error("rejected feedback evicted the live entry")
	}
	if _, err := c.Update(0, h, 100); err == nil {
		t.Error("station 0 must be rejected")
	}
}
