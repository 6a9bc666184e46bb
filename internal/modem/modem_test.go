package modem

import (
	"bytes"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

var allSchemes = []Scheme{BPSK, QPSK, QAM16, QAM64}

func randBits(r *rand.Rand, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(r.Intn(2))
	}
	return b
}

func TestSchemeBasics(t *testing.T) {
	for _, c := range []struct {
		s     Scheme
		bits  int
		norm  float64
		label string
	}{
		{BPSK, 1, 1, "BPSK"},
		{QPSK, 2, 1 / math.Sqrt2, "QPSK"},
		{QAM16, 4, 1 / math.Sqrt(10), "16-QAM"},
		{QAM64, 6, 1 / math.Sqrt(42), "64-QAM"},
	} {
		if c.s.BitsPerSymbol() != c.bits || math.Abs(c.s.Norm()-c.norm) > 1e-15 || c.s.String() != c.label {
			t.Errorf("%v: bits=%d norm=%g", c.s, c.s.BitsPerSymbol(), c.s.Norm())
		}
	}
}

func TestUnitAveragePower(t *testing.T) {
	for _, s := range allSchemes {
		pts := NewMapper(s).Points()
		var p float64
		for _, v := range pts {
			p += real(v)*real(v) + imag(v)*imag(v)
		}
		p /= float64(len(pts))
		if math.Abs(p-1) > 1e-12 {
			t.Errorf("%v: average power %g, want 1", s, p)
		}
	}
}

func TestPointsDistinct(t *testing.T) {
	for _, s := range allSchemes {
		pts := NewMapper(s).Points()
		want := 1 << uint(s.BitsPerSymbol())
		if len(pts) != want {
			t.Fatalf("%v: %d points, want %d", s, len(pts), want)
		}
		for i := range pts {
			for j := i + 1; j < len(pts); j++ {
				if cmplx.Abs(pts[i]-pts[j]) < 1e-9 {
					t.Errorf("%v: points %d and %d coincide", s, i, j)
				}
			}
		}
	}
}

func TestGrayPropertyNeighbors(t *testing.T) {
	// In a Gray-mapped QAM, constellation points adjacent on one axis
	// differ in exactly one bit.
	for _, s := range []Scheme{QAM16, QAM64} {
		m := NewMapper(s)
		pts := m.Points()
		axisStep := 2 * s.Norm()
		for a := range pts {
			for b := range pts {
				d := pts[a] - pts[b]
				if math.Abs(cmplx.Abs(d)-axisStep) < 1e-9 &&
					(math.Abs(real(d)) < 1e-9 || math.Abs(imag(d)) < 1e-9) {
					if popcount(a^b) != 1 {
						t.Errorf("%v: axis neighbors %06b and %06b differ in %d bits",
							s, a, b, popcount(a^b))
					}
				}
			}
		}
	}
}

func popcount(x int) int {
	n := 0
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}

func TestKnownMappings(t *testing.T) {
	// IEEE 802.11-2012 Table 18-9..18-12 spot checks.
	bpsk := NewMapper(BPSK)
	if got := bpsk.MapOne([]byte{0}); got != complex(-1, 0) {
		t.Errorf("BPSK(0) = %v", got)
	}
	qpsk := NewMapper(QPSK)
	k := 1 / math.Sqrt2
	if got := qpsk.MapOne([]byte{1, 1}); cmplx.Abs(got-complex(k, k)) > 1e-12 {
		t.Errorf("QPSK(11) = %v, want (%g,%g)", got, k, k)
	}
	if got := qpsk.MapOne([]byte{0, 1}); cmplx.Abs(got-complex(-k, k)) > 1e-12 {
		t.Errorf("QPSK(01) = %v", got)
	}
	q16 := NewMapper(QAM16)
	k16 := 1 / math.Sqrt(10)
	// b0b1 = 10 → I = +3 (per table: 00→−3, 01→−1, 11→+1, 10→+3)
	if got := q16.MapOne([]byte{1, 0, 0, 0}); cmplx.Abs(got-complex(3*k16, -3*k16)) > 1e-12 {
		t.Errorf("16QAM(1000) = %v", got)
	}
	q64 := NewMapper(QAM64)
	k64 := 1 / math.Sqrt(42)
	// b0b1b2 = 100 → I = +7 per the 3-bit table.
	if got := q64.MapOne([]byte{1, 0, 0, 0, 0, 0}); cmplx.Abs(got-complex(7*k64, -7*k64)) > 1e-12 {
		t.Errorf("64QAM(100000) = %v", got)
	}
}

func TestMapHardRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, s := range allSchemes {
		m := NewMapper(s)
		d := NewDemapper(s)
		bits := randBits(r, s.BitsPerSymbol()*100)
		syms, err := m.Map(bits)
		if err != nil {
			t.Fatal(err)
		}
		got := d.Hard(syms)
		if !bytes.Equal(got, bits) {
			t.Errorf("%v: noiseless hard round trip failed", s)
		}
	}
}

func TestMapRejectsPartialSymbol(t *testing.T) {
	m := NewMapper(QAM16)
	if _, err := m.Map(make([]byte, 5)); err == nil {
		t.Error("partial symbol should error")
	}
}

func TestHardSlicingWithNoise(t *testing.T) {
	// Noise below half the minimum distance must never cause errors.
	r := rand.New(rand.NewSource(2))
	for _, s := range allSchemes {
		m := NewMapper(s)
		d := NewDemapper(s)
		half := s.Norm() * 0.9 // just under half of min distance 2·norm
		bits := randBits(r, s.BitsPerSymbol()*200)
		syms, _ := m.Map(bits)
		for i := range syms {
			dx := (r.Float64()*2 - 1) * half / math.Sqrt2
			dy := (r.Float64()*2 - 1) * half / math.Sqrt2
			syms[i] += complex(dx, dy)
		}
		if got := d.Hard(syms); !bytes.Equal(got, bits) {
			t.Errorf("%v: sub-threshold noise caused bit errors", s)
		}
	}
}

func TestSoftSignsMatchHard(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, s := range allSchemes {
		m := NewMapper(s)
		d := NewDemapper(s)
		bits := randBits(r, s.BitsPerSymbol()*100)
		syms, _ := m.Map(bits)
		var llr []float64
		for _, sym := range syms {
			llr = d.SoftOne(llr, sym, 0.1, 1)
		}
		if len(llr) != len(bits) {
			t.Fatalf("%v: %d LLRs for %d bits", s, len(llr), len(bits))
		}
		for i, l := range llr {
			hard := byte(0)
			if l < 0 {
				hard = 1
			}
			if hard != bits[i] {
				t.Errorf("%v: LLR %d sign disagrees with transmitted bit", s, i)
			}
			if l == 0 {
				t.Errorf("%v: LLR %d is exactly zero on clean input", s, i)
			}
		}
	}
}

func TestSoftConfidenceScalesWithCSI(t *testing.T) {
	d := NewDemapper(QPSK)
	m := NewMapper(QPSK)
	sym := m.MapOne([]byte{1, 1})
	weak := d.SoftOne(nil, sym, 0.1, 0.1)
	strong := d.SoftOne(nil, sym, 0.1, 1.0)
	for i := range weak {
		if math.Abs(strong[i]) <= math.Abs(weak[i]) {
			t.Errorf("bit %d: CSI weighting did not increase confidence", i)
		}
	}
}

func TestSoftZeroNoiseGuard(t *testing.T) {
	d := NewDemapper(BPSK)
	llr := d.SoftOne(nil, complex(1, 0), 0, 1)
	if math.IsNaN(llr[0]) || math.IsInf(llr[0], 0) {
		t.Errorf("zero noise variance produced %g", llr[0])
	}
}

func TestSoftHardAgreementProperty(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for _, s := range allSchemes {
		d := NewDemapper(s)
		prop := func(seed int64) bool {
			_ = seed
			sym := complex(r.NormFloat64(), r.NormFloat64())
			hard := d.HardOne(nil, sym)
			soft := d.SoftOne(nil, sym, 0.5, 1)
			for i := range hard {
				h := byte(0)
				if soft[i] < 0 {
					h = 1
				}
				// Max-log LLR sign must agree with the nearest-point slice
				// (ties broken arbitrarily, so skip near-zero LLRs).
				if math.Abs(soft[i]) > 1e-9 && h != hard[i] {
					return false
				}
			}
			return true
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("%v: %v", s, err)
		}
	}
}

func BenchmarkMap64QAM(b *testing.B) {
	m := NewMapper(QAM64)
	bits := randBits(rand.New(rand.NewSource(5)), 6*52*10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := m.Map(bits); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSoftDemap64QAM(b *testing.B) {
	m := NewMapper(QAM64)
	d := NewDemapper(QAM64)
	bits := randBits(rand.New(rand.NewSource(6)), 6*52*10)
	syms, _ := m.Map(bits)
	llr := make([]float64, 0, len(bits))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		llr = llr[:0]
		for _, sym := range syms {
			llr = d.SoftOne(llr, sym, 0.1, 1)
		}
	}
}
