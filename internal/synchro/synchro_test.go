package synchro

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"repro/internal/dsp"
	"repro/internal/preamble"
)

// burst builds [noise | L-STF | L-LTF | noise] per antenna with AWGN at
// snrDB and CFO omega (rad/sample). Returns streams and the STF start index.
func burst(r *rand.Rand, nrx, lead int, omega, snrDB float64) ([][]complex128, int) {
	stf := preamble.LSTF()
	ltf := preamble.LLTF()
	sig := append(append([]complex128{}, stf...), ltf...)
	dsp.Rotate(sig, 0.3, omega)
	total := lead + len(sig) + 200
	sigma := math.Sqrt(math.Pow(10, -snrDB/10) / 2)
	out := make([][]complex128, nrx)
	for a := range out {
		ang := r.Float64() * 2 * math.Pi
		ph := complex(math.Cos(ang), math.Sin(ang))
		s := make([]complex128, total)
		for i := range s {
			s[i] = complex(r.NormFloat64()*sigma, r.NormFloat64()*sigma)
		}
		for i, v := range sig {
			s[lead+i] += v * ph
		}
		out[a] = s
	}
	return out, lead
}

func feed(t *testing.T, d *Detector, rx [][]complex128) *Detection {
	t.Helper()
	samples := make([]complex128, len(rx))
	for i := 0; i < len(rx[0]); i++ {
		for a := range rx {
			samples[a] = rx[a][i]
		}
		det, err := d.Push(samples)
		if err != nil {
			t.Fatal(err)
		}
		if det != nil {
			return det
		}
	}
	return nil
}

func TestDetectorConfigValidation(t *testing.T) {
	if _, err := NewDetector(0); err == nil {
		t.Error("nrx=0 should fail")
	}
}

func TestDetectsPacketAtModerateSNR(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, nrx := range []int{1, 2} {
		for trial := 0; trial < 10; trial++ {
			d, err := NewDetector(nrx)
			if err != nil {
				t.Fatal(err)
			}
			rx, start := burst(r, nrx, 150+r.Intn(100), 0.01, 10)
			det := feed(t, d, rx)
			if det == nil {
				t.Fatalf("nrx=%d trial %d: no detection", nrx, trial)
			}
			// Detection should land inside the STF (within its 160
			// samples, after the plateau).
			if det.Index < start+24 || det.Index > start+200 {
				t.Errorf("nrx=%d: detection at %d, STF starts at %d", nrx, det.Index, start)
			}
		}
	}
}

func TestNoFalseAlarmOnNoise(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	d, err := NewDetector(2)
	if err != nil {
		t.Fatal(err)
	}
	rx := make([][]complex128, 2)
	for a := range rx {
		s := make([]complex128, 20000)
		for i := range s {
			s[i] = complex(r.NormFloat64(), r.NormFloat64())
		}
		rx[a] = s
	}
	if det := feed(t, d, rx); det != nil {
		t.Errorf("false alarm at %d on pure noise", det.Index)
	}
}

func TestDetectorDisarmsAndResets(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	d, _ := NewDetector(1)
	rx, _ := burst(r, 1, 100, 0, 20)
	if det := feed(t, d, rx); det == nil {
		t.Fatal("no first detection")
	}
	// Without Reset, the rest of the same burst must not re-fire.
	if det := feed(t, d, rx); det != nil {
		t.Error("detector fired while disarmed")
	}
	d.Reset()
	if det := feed(t, d, rx); det == nil {
		t.Error("detector did not fire after Reset")
	}
}

func TestDetectorPushValidation(t *testing.T) {
	d, _ := NewDetector(2)
	if _, err := d.Push(make([]complex128, 1)); err == nil {
		t.Error("wrong sample count should error")
	}
}

func TestCoarseCFOAccuracy(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for _, omega := range []float64{-0.15, -0.02, 0, 0.05, 0.18} {
		rx, start := burst(r, 2, 50, omega, 15)
		stf := [][]complex128{rx[0][start : start+160], rx[1][start : start+160]}
		got, err := CoarseCFO(stf)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-omega) > 0.01 {
			t.Errorf("omega=%g: estimate %g", omega, got)
		}
	}
}

func TestFineCFOMoreAccurateThanCoarse(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	const omega = 0.01
	var coarseErr, fineErr float64
	const trials = 30
	for i := 0; i < trials; i++ {
		rx, start := burst(r, 2, 50, omega, 5)
		stf := [][]complex128{rx[0][start : start+160], rx[1][start : start+160]}
		ltf := [][]complex128{rx[0][start+192 : start+320], rx[1][start+192 : start+320]}
		c, err := CoarseCFO(stf)
		if err != nil {
			t.Fatal(err)
		}
		f, err := FineCFO(ltf)
		if err != nil {
			t.Fatal(err)
		}
		coarseErr += (c - omega) * (c - omega)
		fineErr += (f - omega) * (f - omega)
	}
	if fineErr >= coarseErr {
		t.Errorf("fine CFO MSE %g not better than coarse %g", fineErr/trials, coarseErr/trials)
	}
	t.Logf("CFO MSE: coarse %.3g fine %.3g", coarseErr/trials, fineErr/trials)
}

func TestCFOValidation(t *testing.T) {
	if _, err := CoarseCFO(nil); err == nil {
		t.Error("no streams should fail")
	}
	if _, err := CoarseCFO([][]complex128{make([]complex128, 8)}); err == nil {
		t.Error("short stream should fail")
	}
	if _, err := FineCFO([][]complex128{make([]complex128, 100)}); err == nil {
		t.Error("short LTF should fail")
	}
	if _, err := CoarseCFO([][]complex128{make([]complex128, 64)}); err == nil {
		t.Error("all-zero stream should fail")
	}
}

func TestCorrectCFORemovesRotation(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	const omega = 0.07
	rx, start := burst(r, 1, 30, omega, 40)
	stf := [][]complex128{rx[0][start : start+160]}
	est, err := CoarseCFO(stf)
	if err != nil {
		t.Fatal(err)
	}
	CorrectCFO(rx, est)
	// Residual CFO after correction should be tiny.
	resid, err := CoarseCFO([][]complex128{rx[0][start : start+160]})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(resid) > 1e-3 {
		t.Errorf("residual CFO %g after correction", resid)
	}
}

// randStreams returns nrx streams of independent unit-variance complex
// Gaussian samples with the given lengths.
func randStreams(r *rand.Rand, lens ...int) [][]complex128 {
	rx := make([][]complex128, len(lens))
	for a, n := range lens {
		rx[a] = make([]complex128, n)
		for i := range rx[a] {
			rx[a][i] = complex(r.NormFloat64(), r.NormFloat64())
		}
	}
	return rx
}

func TestCorrectCFOMatchesRotate(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	for trial := 0; trial < 40; trial++ {
		nrx := 1 + trial%4
		lens := make([]int, nrx)
		for a := range lens {
			lens[a] = 2000
			if trial%3 == 0 {
				lens[a] = r.Intn(3000) // unequal lengths, empty included
			}
		}
		rx := randStreams(r, lens...)
		omega := (r.Float64() - 0.5) * 0.4
		want := make([][]complex128, nrx)
		for a := range rx {
			want[a] = append([]complex128(nil), rx[a]...)
			dsp.Rotate(want[a], 0, -omega)
		}
		CorrectCFO(rx, omega)
		for a := range rx {
			for i := range rx[a] {
				if math.Float64bits(real(rx[a][i])) != math.Float64bits(real(want[a][i])) ||
					math.Float64bits(imag(rx[a][i])) != math.Float64bits(imag(want[a][i])) {
					t.Fatalf("trial %d stream %d sample %d: %v, dsp.Rotate gives %v",
						trial, a, i, rx[a][i], want[a][i])
				}
			}
		}
	}
}

// TestFinishCFOMatchesTwoPasses holds the prefix pass plus the fused pass to
// the two full CorrectCFO passes they replace, coarse then fine, bit for bit.
// It covers 1–4 streams of unequal length with the prefix ending at 0,
// inside the streams (possibly past the shorter ones) and past their end.
func TestFinishCFOMatchesTwoPasses(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	for trial := 0; trial < 48; trial++ {
		nrx := 1 + trial%4
		lens := make([]int, nrx)
		longest := 0
		for a := range lens {
			lens[a] = r.Intn(2000)
			longest = max(longest, lens[a])
		}
		var end int
		switch trial % 3 {
		case 1:
			end = r.Intn(longest + 1)
		case 2:
			end = longest + r.Intn(100)
		}
		rx := randStreams(r, lens...)
		coarse := (r.Float64() - 0.5) * 0.4
		fine := (r.Float64() - 0.5) * 0.05
		want := make([][]complex128, nrx)
		for a := range rx {
			want[a] = append([]complex128(nil), rx[a]...)
		}
		CorrectCFO(want, coarse)
		CorrectCFO(want, fine)
		CorrectCFOPrefix(rx, coarse, end)
		FinishCFO(rx, coarse, fine, end)
		for a := range rx {
			for i := range rx[a] {
				if math.Float64bits(real(rx[a][i])) != math.Float64bits(real(want[a][i])) ||
					math.Float64bits(imag(rx[a][i])) != math.Float64bits(imag(want[a][i])) {
					t.Fatalf("trial %d (prefix end %d) stream %d sample %d: %v, two passes give %v",
						trial, end, a, i, rx[a][i], want[a][i])
				}
			}
		}
	}
}

// referenceFineTiming is FineTiming's original loop, which correlates both
// long symbols afresh at every candidate position. It is the oracle for the
// one-correlation-per-lag schedule.
func referenceFineTiming(rx [][]complex128, searchFrom, searchTo int) int {
	ref := preamble.LLTF()[32:96]
	best, bestV := -1, math.Inf(-1)
	for pos := searchFrom; pos < searchTo; pos++ {
		var v float64
		for _, r := range rx {
			c1 := dotConj(r[pos:pos+64], ref)
			c2 := dotConj(r[pos+64:pos+128], ref)
			v += cmplx.Abs(c1) + cmplx.Abs(c2)
		}
		if v > bestV {
			best, bestV = pos, v
		}
	}
	return best
}

func TestFineTimingMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for trial := 0; trial < 60; trial++ {
		// Past four antennas the magnitude ring no longer fits its stack
		// buffer; cover that case too.
		nrx := 1 + trial%6
		var rx [][]complex128
		if trial%2 == 0 {
			rx, _ = burst(r, nrx, 50+r.Intn(200), 0.01, 5+float64(r.Intn(20)))
		} else {
			lens := make([]int, nrx)
			for a := range lens {
				lens[a] = 700
			}
			rx = randStreams(r, lens...)
		}
		n := len(rx[0])
		from := r.Intn(n - 200)
		to := from + 1 + r.Intn(n-128-from)
		got, err := FineTiming(rx, from, to)
		if err != nil {
			t.Fatal(err)
		}
		if want := referenceFineTiming(rx, from, to); got != want {
			t.Fatalf("trial %d (nrx=%d window [%d, %d)): FineTiming %d, reference %d", trial, nrx, from, to, got, want)
		}
	}
}

func TestFineTimingLocatesLTF(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		lead := 100 + r.Intn(80)
		rx, start := burst(r, 2, lead, 0, 15)
		// True first long symbol begins at start+160 (STF) + 32 (guard).
		want := start + 192
		got, err := FineTiming(rx, start+100, start+260)
		if err != nil {
			t.Fatal(err)
		}
		if d := got - want; d < -1 || d > 1 {
			t.Errorf("trial %d: fine timing %d, want %d", trial, got, want)
		}
	}
}

func TestFineTimingValidation(t *testing.T) {
	if _, err := FineTiming(nil, 0, 10); err == nil {
		t.Error("no streams should fail")
	}
	rx := [][]complex128{make([]complex128, 100)}
	if _, err := FineTiming(rx, 0, 100); err == nil {
		t.Error("window beyond stream should fail")
	}
}

func BenchmarkDetectorPush2RX(b *testing.B) {
	d, _ := NewDetector(2)
	s := []complex128{complex(0.5, -0.2), complex(-0.1, 0.7)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := d.Push(s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCorrectCFO4RX derotates four streams of an MCS0 1500-octet
// burst's length.
func BenchmarkCorrectCFO4RX(b *testing.B) {
	rx := randStreams(rand.New(rand.NewSource(10)), 38500, 38500, 38500, 38500)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		CorrectCFO(rx, 1e-3)
	}
}

// BenchmarkFinishCFO4RX runs the fused coarse+fine pass over the same four
// streams, past a sync prefix of the receiver's size.
func BenchmarkFinishCFO4RX(b *testing.B) {
	rx := randStreams(rand.New(rand.NewSource(10)), 38500, 38500, 38500, 38500)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		FinishCFO(rx, 1e-3, 1e-4, 700)
	}
}

// BenchmarkFineTiming4RX searches the receiver's 320-sample window on four
// streams.
func BenchmarkFineTiming4RX(b *testing.B) {
	rx, start := burst(rand.New(rand.NewSource(11)), 4, 200, 0, 20)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := FineTiming(rx, start+120, start+440); err != nil {
			b.Fatal(err)
		}
	}
}
