package vandebeek

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dsp"
	"repro/internal/ofdm"
)

// makeOFDMStream builds a stream of random OFDM symbols (64-FFT, 16-CP)
// with the symbol boundary at sample `offset`, applies CFO (in subcarrier
// spacings) and AWGN at the given SNR, over nrx antennas with independent
// flat channels and noise.
func makeOFDMStream(r *rand.Rand, nrx, numSymbols, offset int, cfo, snrDB float64) [][]complex128 {
	mod := ofdm.NewModulator(ofdm.HTToneMap)
	total := offset + numSymbols*ofdm.SymbolLen + 32
	clean := make([]complex128, total)
	// Leading random noise-level filler before the first symbol would make
	// the boundary ill-defined; instead precede with other OFDM symbols'
	// tails: fill everything with symbols, aligned so a boundary lands at
	// `offset`.
	sym := make([]complex128, ofdm.SymbolLen)
	pos := offset % ofdm.SymbolLen
	if pos > 0 {
		pos -= ofdm.SymbolLen // start mid-symbol before 0
	}
	for ; pos < total; pos += ofdm.SymbolLen {
		data := make([]complex128, 52)
		for i := range data {
			data[i] = complex(math.Sqrt2/2*float64(1-2*r.Intn(2)), math.Sqrt2/2*float64(1-2*r.Intn(2)))
		}
		if err := mod.Symbol(sym, data, []complex128{1, 1, 1, -1}); err != nil {
			panic(err)
		}
		for i, v := range sym {
			if pos+i >= 0 && pos+i < total {
				clean[pos+i] = v
			}
		}
	}
	// Apply CFO: phase step 2π·cfo/N per sample.
	dsp.Rotate(clean, 0, 2*math.Pi*cfo/float64(ofdm.FFTSize))
	snr := math.Pow(10, snrDB/10)
	out := make([][]complex128, nrx)
	for a := range out {
		// Independent flat unit-magnitude channel phase per antenna.
		ang := r.Float64() * 2 * math.Pi
		ph := complex(math.Cos(ang), math.Sin(ang))
		s := make([]complex128, total)
		sigma := math.Sqrt(1 / snr / 2)
		for i, v := range clean {
			s[i] = v*ph + complex(r.NormFloat64()*sigma, r.NormFloat64()*sigma)
		}
		out[a] = s
	}
	return out
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 16, 10); err == nil {
		t.Error("zero fft size should fail")
	}
	if _, err := New(64, 0, 10); err == nil {
		t.Error("zero CP should fail")
	}
	if _, err := New(64, 16, -1); err == nil {
		t.Error("negative SNR should fail")
	}
	e, err := New(64, 16, 10)
	if err != nil || e.SymbolSpan() != 80 {
		t.Errorf("SymbolSpan = %d, err %v", e.SymbolSpan(), err)
	}
}

func TestMetricValidation(t *testing.T) {
	e, _ := New(64, 16, 10)
	if _, _, err := e.Metric(nil); err == nil {
		t.Error("no streams should fail")
	}
	if _, _, err := e.Metric([][]complex128{make([]complex128, 10)}); err == nil {
		t.Error("short stream should fail")
	}
	if _, _, err := e.Metric([][]complex128{make([]complex128, 200), make([]complex128, 100)}); err == nil {
		t.Error("mismatched streams should fail")
	}
}

func TestTimingHighSNRSISO(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	e, _ := New(64, 16, 1000)
	for trial := 0; trial < 10; trial++ {
		offset := 10 + r.Intn(60)
		rx := makeOFDMStream(r, 1, 3, offset, 0, 30)
		// Search only a window that contains exactly one true boundary
		// at `offset` (candidates 0..79 modulo symbol length are
		// ambiguous across symbols; restrict to one period around it).
		est, err := e.Estimate([][]complex128{rx[0][:offset+ofdm.SymbolLen+e.SymbolSpan()-1]})
		if err != nil {
			t.Fatal(err)
		}
		got := est.Offset % ofdm.SymbolLen
		want := offset % ofdm.SymbolLen
		if d := symDist(got, want); d > 2 {
			t.Errorf("trial %d: offset %d (mod %d), want %d", trial, got, ofdm.SymbolLen, want)
		}
	}
}

func symDist(a, b int) int {
	d := a - b
	if d < 0 {
		d = -d
	}
	if alt := ofdm.SymbolLen - d; alt < d {
		d = alt
	}
	return d
}

func TestCFOEstimateUnbiased(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	e, _ := New(64, 16, 100)
	for _, cfo := range []float64{-0.3, -0.05, 0, 0.1, 0.45} {
		var sum float64
		const trials = 20
		for i := 0; i < trials; i++ {
			rx := makeOFDMStream(r, 1, 4, 40, cfo, 25)
			est, err := e.EstimateAveraged(rx, 3)
			if err != nil {
				t.Fatal(err)
			}
			sum += est.CFO
		}
		mean := sum / trials
		if math.Abs(mean-cfo) > 0.02 {
			t.Errorf("cfo=%g: mean estimate %g", cfo, mean)
		}
	}
}

func TestMIMOBeatsSISOAtLowSNR(t *testing.T) {
	// The paper's claim: summing the per-antenna log-likelihoods lowers the
	// timing error variance. Compare 1-RX vs 2-RX at low SNR.
	r := rand.New(rand.NewSource(3))
	e, _ := New(64, 16, math.Pow(10, 0.2))
	const trials = 150
	offset := 30
	errSISO, errMIMO := 0.0, 0.0
	for i := 0; i < trials; i++ {
		rx := makeOFDMStream(r, 2, 4, offset, 0.1, 2)
		limit := offset + ofdm.SymbolLen + e.SymbolSpan() - 1
		est1, err := e.Estimate([][]complex128{rx[0][:limit]})
		if err != nil {
			t.Fatal(err)
		}
		est2, err := e.Estimate([][]complex128{rx[0][:limit], rx[1][:limit]})
		if err != nil {
			t.Fatal(err)
		}
		d1 := symDist(est1.Offset%ofdm.SymbolLen, offset%ofdm.SymbolLen)
		d2 := symDist(est2.Offset%ofdm.SymbolLen, offset%ofdm.SymbolLen)
		errSISO += float64(d1 * d1)
		errMIMO += float64(d2 * d2)
	}
	if errMIMO >= errSISO {
		t.Errorf("MIMO timing MSE %g not better than SISO %g", errMIMO/trials, errSISO/trials)
	}
	t.Logf("timing MSE: SISO %.2f, MIMO %.2f", errSISO/trials, errMIMO/trials)
}

func TestEstimateAveragedReducesVariance(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	e, _ := New(64, 16, math.Pow(10, 0.3))
	const trials = 100
	offset := 25
	plain, avg := 0.0, 0.0
	for i := 0; i < trials; i++ {
		rx := makeOFDMStream(r, 1, 6, offset, 0, 3)
		limit := offset + ofdm.SymbolLen + e.SymbolSpan() - 1
		e1, err := e.Estimate([][]complex128{rx[0][:limit]})
		if err != nil {
			t.Fatal(err)
		}
		e2, err := e.EstimateAveraged(rx, 5)
		if err != nil {
			t.Fatal(err)
		}
		d1 := symDist(e1.Offset%ofdm.SymbolLen, offset%ofdm.SymbolLen)
		d2 := symDist(e2.Offset%ofdm.SymbolLen, offset%ofdm.SymbolLen)
		plain += float64(d1 * d1)
		avg += float64(d2 * d2)
	}
	if avg >= plain {
		t.Errorf("averaged MSE %g not better than single-shot %g", avg/trials, plain/trials)
	}
	t.Logf("timing MSE: single %.2f, averaged %.2f", plain/trials, avg/trials)
}

func TestMetricPeaksAtCPWindows(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	e, _ := New(64, 16, 1000)
	rx := makeOFDMStream(r, 1, 4, 0, 0, 40)
	lambda, _, err := e.Metric(rx)
	if err != nil {
		t.Fatal(err)
	}
	// λ must peak at multiples of the symbol length (boundary at 0).
	peak := 0
	for i, v := range lambda {
		if v > lambda[peak] {
			peak = i
		}
	}
	if peak%ofdm.SymbolLen > 2 && ofdm.SymbolLen-peak%ofdm.SymbolLen > 2 {
		t.Errorf("metric peak at %d, not near a symbol boundary", peak)
	}
}

func TestEstimateAveragedValidation(t *testing.T) {
	e, _ := New(64, 16, 10)
	rx := [][]complex128{make([]complex128, 200)}
	if _, err := e.EstimateAveraged(rx, 0); err == nil {
		t.Error("numSymbols=0 should fail")
	}
}

func BenchmarkEstimate2RX(b *testing.B) {
	r := rand.New(rand.NewSource(6))
	e, _ := New(64, 16, 100)
	rx := makeOFDMStream(r, 2, 6, 40, 0.1, 10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := e.Estimate(rx); err != nil {
			b.Fatal(err)
		}
	}
}
