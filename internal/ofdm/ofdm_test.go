package ofdm

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

func randSyms(r *rand.Rand, n int) []complex128 {
	out := make([]complex128, n)
	for i := range out {
		// QPSK-like unit-power points.
		out[i] = complex(math.Sqrt2/2*float64(1-2*r.Intn(2)), math.Sqrt2/2*float64(1-2*r.Intn(2)))
	}
	return out
}

func TestToneMapSizes(t *testing.T) {
	if LegacyToneMap.NumData() != 48 || LegacyToneMap.NumUsed() != 52 {
		t.Errorf("legacy map: %d data, %d used", LegacyToneMap.NumData(), LegacyToneMap.NumUsed())
	}
	if HTToneMap.NumData() != 52 || HTToneMap.NumUsed() != 56 {
		t.Errorf("HT map: %d data, %d used", HTToneMap.NumData(), HTToneMap.NumUsed())
	}
}

func TestToneMapNoCollisions(t *testing.T) {
	for name, tm := range map[string]*ToneMap{"legacy": LegacyToneMap, "ht": HTToneMap} {
		seen := map[int]bool{}
		for _, b := range append(append([]int{}, tm.Data...), tm.Pilot...) {
			if b < 0 || b >= FFTSize {
				t.Errorf("%s: bin %d out of range", name, b)
			}
			if seen[b] {
				t.Errorf("%s: bin %d used twice", name, b)
			}
			seen[b] = true
		}
		if seen[0] {
			t.Errorf("%s: DC bin occupied", name)
		}
	}
}

func TestPilotBins(t *testing.T) {
	want := []int{bin(-21), bin(-7), bin(7), bin(21)}
	for i, b := range LegacyToneMap.Pilot {
		if b != want[i] {
			t.Errorf("pilot %d at bin %d, want %d", i, b, want[i])
		}
	}
	if bin(-21) != 43 || bin(7) != 7 {
		t.Errorf("bin mapping wrong: bin(-21)=%d bin(7)=%d", bin(-21), bin(7))
	}
}

func TestPilotPolarityKnownPrefix(t *testing.T) {
	// IEEE 802.11-2012 §18.3.5.10: p_0.. = 1,1,1,1, -1,-1,-1,1, -1,-1,-1,-1, 1,1,-1,1 ...
	want := []float64{1, 1, 1, 1, -1, -1, -1, 1, -1, -1, -1, -1, 1, 1, -1, 1}
	for i, w := range want {
		if Polarity(i) != w {
			t.Errorf("p_%d = %g, want %g", i, Polarity(i), w)
		}
	}
	if Polarity(127) != Polarity(0) || Polarity(-1) != Polarity(126) {
		t.Error("polarity periodicity broken")
	}
}

func TestLegacyPilots(t *testing.T) {
	p0 := LegacyPilots(0)
	want := []complex128{1, 1, 1, -1}
	for i := range want {
		if p0[i] != want[i] {
			t.Errorf("symbol 0 pilot %d = %v, want %v", i, p0[i], want[i])
		}
	}
	p4 := LegacyPilots(4) // polarity -1
	for i := range want {
		if p4[i] != -want[i] {
			t.Errorf("symbol 4 pilot %d = %v, want %v", i, p4[i], -want[i])
		}
	}
}

func TestHTPilotsValidation(t *testing.T) {
	if _, err := HTPilots(5, 0, 0, 3); err == nil {
		t.Error("nss=5 should fail")
	}
	if _, err := HTPilots(2, 2, 0, 3); err == nil {
		t.Error("iss out of range should fail")
	}
}

func TestHTPilotsRotationAndOrthogonality(t *testing.T) {
	// Pattern rotates one position per symbol.
	a, err := HTPilots(2, 0, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := HTPilots(2, 0, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	pol0, pol1 := Polarity(3), Polarity(4)
	for k := 0; k < NumPilots-1; k++ {
		if a[k+1]/complex(pol0, 0) != b[k]/complex(pol1, 0) {
			t.Errorf("pilot rotation broken at k=%d", k)
		}
	}
	// For N_SS=2 the per-stream patterns are orthogonal across pilot
	// positions within a symbol.
	s0, _ := HTPilots(2, 0, 0, 3)
	s1, _ := HTPilots(2, 1, 0, 3)
	var dot complex128
	for k := range s0 {
		dot += s0[k] * cmplx.Conj(s1[k])
	}
	if cmplx.Abs(dot) > 1e-12 {
		t.Errorf("stream pilot patterns not orthogonal: %v", dot)
	}
}

func TestModulatorDemodulatorRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for name, tm := range map[string]*ToneMap{"legacy": LegacyToneMap, "ht": HTToneMap} {
		mod := NewModulator(tm)
		dem := NewDemodulator(tm)
		data := randSyms(r, tm.NumData())
		pilots := []complex128{1, 1, 1, -1}
		sym := make([]complex128, SymbolLen)
		if err := mod.Symbol(sym, data, pilots); err != nil {
			t.Fatal(err)
		}
		gotData, gotPilots, err := dem.Symbol(sym[CPLen:], nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range data {
			if cmplx.Abs(gotData[i]-data[i]) > 1e-9 {
				t.Fatalf("%s: data tone %d: got %v want %v", name, i, gotData[i], data[i])
			}
		}
		for i := range pilots {
			if cmplx.Abs(gotPilots[i]-pilots[i]) > 1e-9 {
				t.Fatalf("%s: pilot %d: got %v want %v", name, i, gotPilots[i], pilots[i])
			}
		}
	}
}

func TestCyclicPrefixIsCyclic(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	mod := NewModulator(HTToneMap)
	sym := make([]complex128, SymbolLen)
	if err := mod.Symbol(sym, randSyms(r, 52), []complex128{1, 1, 1, -1}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < CPLen; i++ {
		if sym[i] != sym[FFTSize+i] {
			t.Fatalf("CP sample %d != tail sample", i)
		}
	}
}

func TestSymbolUnitPower(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	mod := NewModulator(HTToneMap)
	var p float64
	const trials = 200
	sym := make([]complex128, SymbolLen)
	for i := 0; i < trials; i++ {
		if err := mod.Symbol(sym, randSyms(r, 52), []complex128{1, 1, 1, -1}); err != nil {
			t.Fatal(err)
		}
		for _, v := range sym[CPLen:] {
			p += real(v)*real(v) + imag(v)*imag(v)
		}
	}
	p /= trials * FFTSize
	if math.Abs(p-1) > 0.05 {
		t.Errorf("average sample power %g, want ≈ 1", p)
	}
}

func TestModulatorValidation(t *testing.T) {
	mod := NewModulator(HTToneMap)
	sym := make([]complex128, SymbolLen)
	if err := mod.Symbol(sym[:10], make([]complex128, 52), make([]complex128, 4)); err == nil {
		t.Error("short dst should fail")
	}
	if err := mod.Symbol(sym, make([]complex128, 48), make([]complex128, 4)); err == nil {
		t.Error("wrong data count should fail")
	}
	if err := mod.Symbol(sym, make([]complex128, 52), make([]complex128, 3)); err == nil {
		t.Error("wrong pilot count should fail")
	}
	dem := NewDemodulator(HTToneMap)
	if _, _, err := dem.Symbol(make([]complex128, 80), nil, nil); err == nil {
		t.Error("demod should reject non-64-sample input")
	}
}

func TestSymbolFromBinsAndBins(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	mod := NewModulator(LegacyToneMap)
	dem := NewDemodulator(LegacyToneMap)
	bins := make([]complex128, FFTSize)
	for _, b := range LegacyToneMap.Data {
		bins[b] = complex(float64(1-2*r.Intn(2)), 0)
	}
	sym := make([]complex128, SymbolLen)
	if err := mod.SymbolFromBins(sym, bins); err != nil {
		t.Fatal(err)
	}
	got := make([]complex128, FFTSize)
	if err := dem.Bins(got, sym[CPLen:]); err != nil {
		t.Fatal(err)
	}
	for i := range bins {
		if cmplx.Abs(got[i]-bins[i]) > 1e-9 {
			t.Fatalf("bin %d: got %v want %v", i, got[i], bins[i])
		}
	}
}

func BenchmarkModulateSymbol(b *testing.B) {
	r := rand.New(rand.NewSource(5))
	mod := NewModulator(HTToneMap)
	data := randSyms(r, 52)
	pilots := []complex128{1, 1, 1, -1}
	sym := make([]complex128, SymbolLen)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := mod.Symbol(sym, data, pilots); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSymbolTo(b *testing.B) {
	r := rand.New(rand.NewSource(6))
	mod := NewModulator(HTToneMap)
	sym := make([]complex128, SymbolLen)
	if err := mod.Symbol(sym, randSyms(r, 52), []complex128{1, 1, 1, -1}); err != nil {
		b.Fatal(err)
	}
	dem := NewDemodulator(HTToneMap)
	data := make([]complex128, HTToneMap.NumData())
	pilots := make([]complex128, NumPilots)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := dem.SymbolTo(data, pilots, sym[CPLen:]); err != nil {
			b.Fatal(err)
		}
	}
}
