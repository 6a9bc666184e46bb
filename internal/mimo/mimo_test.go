package mimo

import (
	"bytes"
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cmatrix"
	"repro/internal/modem"
)

func randBits(r *rand.Rand, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(r.Intn(2))
	}
	return b
}

func TestStreamParserRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, nbpscs := range []int{1, 2, 4, 6} {
		for nss := 1; nss <= 4; nss++ {
			p, err := NewStreamParser(nss, nbpscs)
			if err != nil {
				t.Fatal(err)
			}
			bits := randBits(r, p.BlockBits()*50)
			streams, err := p.Parse(bits)
			if err != nil {
				t.Fatal(err)
			}
			if len(streams) != nss {
				t.Fatalf("%d streams", len(streams))
			}
			for i := 1; i < nss; i++ {
				if len(streams[i]) != len(streams[0]) {
					t.Fatal("unequal stream lengths")
				}
			}
			merged, err := mergeBits(p, streams)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(merged, bits) {
				t.Fatalf("nss=%d nbpscs=%d: round trip failed", nss, nbpscs)
			}
		}
	}
}

func TestStreamParserKnownPattern(t *testing.T) {
	// N_SS=2, N_BPSCS=4 → s=2: bits 0,1 to stream 0; 2,3 to stream 1; ...
	p, _ := NewStreamParser(2, 4)
	bits := []byte{0, 1, 2, 3, 4, 5, 6, 7}
	streams, err := p.Parse(bits)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(streams[0], []byte{0, 1, 4, 5}) || !bytes.Equal(streams[1], []byte{2, 3, 6, 7}) {
		t.Errorf("parse = %v", streams)
	}
}

func TestStreamParserValidation(t *testing.T) {
	if _, err := NewStreamParser(0, 2); err == nil {
		t.Error("nss=0 should fail")
	}
	if _, err := NewStreamParser(2, 3); err == nil {
		t.Error("nbpscs=3 should fail")
	}
	p, _ := NewStreamParser(2, 2)
	if _, err := p.Parse(make([]byte, 3)); err == nil {
		t.Error("non-multiple parse should fail")
	}
	if _, err := p.MergeLLR([][]float64{{0}}); err == nil {
		t.Error("wrong stream count should fail")
	}
	if _, err := p.MergeLLR([][]float64{{0, 1}, {0}}); err == nil {
		t.Error("ragged MergeLLR should fail")
	}
}

// mergeBits reassembles per-stream bits through MergeLLR, the inverse of
// Parse that the receiver runs, so the round-trip tests check Parse against
// the code in use.
func mergeBits(p *StreamParser, streams [][]byte) ([]byte, error) {
	soft := make([][]float64, len(streams))
	for i, s := range streams {
		soft[i] = make([]float64, len(s))
		for j, b := range s {
			soft[i][j] = float64(b)
		}
	}
	merged, err := p.MergeLLR(soft)
	out := make([]byte, len(merged))
	for i, v := range merged {
		out[i] = byte(v)
	}
	return out, err
}

func TestMergeLLRMatchesMerge(t *testing.T) {
	p, _ := NewStreamParser(3, 6)
	r := rand.New(rand.NewSource(2))
	bits := make([]byte, p.BlockBits()*20)
	for i := range bits {
		bits[i] = byte(r.Intn(256))
	}
	streams, _ := p.Parse(bits)
	merged, err := mergeBits(p, streams)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(merged, bits) {
		t.Fatal("MergeLLR ordering differs from the bits Parse split")
	}
}

func randChannel(r *rand.Rand, nrx, nss int) *cmatrix.Matrix {
	h := cmatrix.New(nrx, nss)
	for i := range h.Data {
		h.Data[i] = complex(r.NormFloat64(), r.NormFloat64()) * complex(0.7071, 0)
	}
	return h
}

// runDetector pushes nSym random symbols per stream through H plus noise
// and counts LLR sign errors.
func runDetector(t *testing.T, d Detector, scheme modem.Scheme, nrx, nss int, snrDB float64, nSym int, seed int64) (bitErrs, totalBits int) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	mapper := modem.NewMapper(scheme)
	nbpsc := scheme.BitsPerSymbol()
	h := []*cmatrix.Matrix{randChannel(r, nrx, nss)}
	// Signal power per RX antenna ≈ nss (unit power per stream).
	noiseVar := float64(nss) / math.Pow(10, snrDB/10)
	if err := d.Prepare(h, noiseVar); err != nil {
		t.Fatal(err)
	}
	llr := make([][]float64, nss)
	for s := 0; s < nSym; s++ {
		bits := make([][]byte, nss)
		x := make([]complex128, nss)
		for i := 0; i < nss; i++ {
			bits[i] = randBits(r, nbpsc)
			x[i] = mapper.MapOne(bits[i])
		}
		y := h[0].MulVec(x)
		for i := range y {
			y[i] += complex(r.NormFloat64(), r.NormFloat64()) * complex(math.Sqrt(noiseVar/2), 0)
		}
		for i := range llr {
			llr[i] = llr[i][:0]
		}
		var err error
		llr, err = d.Detect(llr, 0, y)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < nss; i++ {
			for b := 0; b < nbpsc; b++ {
				hard := byte(0)
				if llr[i][b] < 0 {
					hard = 1
				}
				if hard != bits[i][b] {
					bitErrs++
				}
				totalBits++
			}
		}
	}
	return bitErrs, totalBits
}

func TestDetectorsNoiselessPerfect(t *testing.T) {
	for _, name := range []string{"zf", "mmse", "sic", "ml"} {
		for _, scheme := range []modem.Scheme{modem.QPSK, modem.QAM16} {
			d, err := NewDetector(name, scheme, 2)
			if err != nil {
				t.Fatal(err)
			}
			errs, total := runDetector(t, d, scheme, 2, 2, 60, 200, 3)
			if errs != 0 {
				t.Errorf("%s/%v: %d/%d errors at 60 dB", name, scheme, errs, total)
			}
		}
	}
}

func TestDetectorOrderingAtModerateSNR(t *testing.T) {
	// At moderate SNR over random channels: ML ≤ MMSE ≤ ZF error counts
	// (allowing small statistical slack).
	results := map[string]int{}
	for _, name := range []string{"zf", "mmse", "sic", "ml"} {
		d, err := NewDetector(name, modem.QPSK, 2)
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		errs := 0
		for trial := 0; trial < 60; trial++ {
			e, n := runDetector(t, d, modem.QPSK, 2, 2, 12, 50, int64(100+trial))
			errs += e
			total += n
		}
		results[name] = errs
		if errs == 0 {
			t.Logf("%s: zero errors (unexpectedly clean)", name)
		}
	}
	if !(results["ml"] <= results["mmse"]+results["mmse"]/5+5) {
		t.Errorf("ML (%d) should not be much worse than MMSE (%d)", results["ml"], results["mmse"])
	}
	if !(results["mmse"] <= results["zf"]+results["zf"]/5+5) {
		t.Errorf("MMSE (%d) should not be much worse than ZF (%d)", results["mmse"], results["zf"])
	}
	t.Logf("errors: zf=%d mmse=%d ml=%d", results["zf"], results["mmse"], results["ml"])
}

func TestMoreRXAntennasHelpZF(t *testing.T) {
	d := NewZF(modem.QPSK, 2)
	e2, n2 := 0, 0
	e4, n4 := 0, 0
	for trial := 0; trial < 40; trial++ {
		e, n := runDetector(t, d, modem.QPSK, 2, 2, 8, 50, int64(200+trial))
		e2 += e
		n2 += n
		e, n = runDetector(t, d, modem.QPSK, 4, 2, 8, 50, int64(200+trial))
		e4 += e
		n4 += n
	}
	if n2 == 0 || n4 == 0 {
		t.Fatal("no bits")
	}
	if float64(e4)/float64(n4) >= float64(e2)/float64(n2) {
		t.Errorf("4 RX (%d/%d) should beat 2 RX (%d/%d)", e4, n4, e2, n2)
	}
}

func TestEqualizeRecoverSymbols(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	mapper := modem.NewMapper(modem.QAM16)
	for _, name := range []string{"zf", "mmse", "sic", "ml"} {
		d, err := NewDetector(name, modem.QAM16, 2)
		if err != nil {
			t.Fatal(err)
		}
		h := []*cmatrix.Matrix{randChannel(r, 2, 2)}
		if err := d.Prepare(h, 1e-9); err != nil {
			t.Fatal(err)
		}
		x := []complex128{mapper.MapOne([]byte{1, 0, 1, 1}), mapper.MapOne([]byte{0, 0, 1, 0})}
		y := h[0].MulVec(x)
		got := make([]complex128, 2)
		if err := d.Equalize(got, 0, y); err != nil {
			t.Fatal(err)
		}
		for i := range x {
			if cmplx.Abs(got[i]-x[i]) > 1e-3 {
				t.Errorf("%s: stream %d: got %v want %v", name, i, got[i], x[i])
			}
		}
	}
}

func TestDetectorErrorsBeforePrepare(t *testing.T) {
	for _, name := range []string{"zf", "mmse", "sic", "ml"} {
		d, err := NewDetector(name, modem.QPSK, 2)
		if err != nil {
			t.Fatal(err)
		}
		llr := make([][]float64, 2)
		if _, err := d.Detect(llr, 0, make([]complex128, 2)); err == nil {
			t.Errorf("%s: Detect before Prepare should error", name)
		}
		if err := d.Equalize(make([]complex128, 2), 0, make([]complex128, 2)); err == nil {
			t.Errorf("%s: Equalize before Prepare should error", name)
		}
	}
}

func TestDetectorValidation(t *testing.T) {
	// Rank-deficient for ZF: more streams than RX antennas.
	d := NewZF(modem.QPSK, 2)
	h := []*cmatrix.Matrix{cmatrix.New(1, 2)}
	if err := d.Prepare(h, 0.1); err == nil {
		t.Error("1 RX / 2 SS should fail linear Prepare")
	}
	// Wrong column count.
	h2 := []*cmatrix.Matrix{cmatrix.New(2, 3)}
	if err := d.Prepare(h2, 0.1); err == nil {
		t.Error("3-column channel for 2 streams should fail")
	}
	// ML refuses giant joint constellations.
	if _, err := NewML(modem.QAM64, 3); err == nil {
		t.Error("ML 3x64QAM should be rejected")
	}
	if _, err := NewDetector("bogus", modem.QPSK, 2); err == nil {
		t.Error("unknown detector name should fail")
	}
}

func TestMLHandlesRankDeficiency(t *testing.T) {
	// ML works even with 1 RX antenna for 2 streams (no matrix inversion).
	d, err := NewML(modem.QPSK, 2)
	if err != nil {
		t.Fatal(err)
	}
	h := []*cmatrix.Matrix{cmatrix.FromRows([][]complex128{{1, 0.3}})}
	if err := d.Prepare(h, 0.01); err != nil {
		t.Fatal(err)
	}
	llr := make([][]float64, 2)
	if _, err := d.Detect(llr, 0, []complex128{0.5}); err != nil {
		t.Fatal(err)
	}
}

func TestParserPropertyMergeInverse(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	prop := func(nssSel, nbpscSel uint8, blocks uint8) bool {
		nss := 1 + int(nssSel)%4
		nbpscs := []int{1, 2, 4, 6}[nbpscSel%4]
		p, err := NewStreamParser(nss, nbpscs)
		if err != nil {
			return false
		}
		n := p.BlockBits() * (1 + int(blocks)%20)
		bits := randBits(r, n)
		streams, err := p.Parse(bits)
		if err != nil {
			return false
		}
		merged, err := mergeBits(p, streams)
		return err == nil && bytes.Equal(merged, bits)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkZFDetect2x2QAM64(b *testing.B) {
	r := rand.New(rand.NewSource(6))
	d := NewZF(modem.QAM64, 2)
	h := []*cmatrix.Matrix{randChannel(r, 2, 2)}
	if err := d.Prepare(h, 0.01); err != nil {
		b.Fatal(err)
	}
	y := []complex128{complex(r.NormFloat64(), r.NormFloat64()), complex(r.NormFloat64(), r.NormFloat64())}
	llr := make([][]float64, 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		llr[0], llr[1] = llr[0][:0], llr[1][:0]
		if _, err := d.Detect(llr, 0, y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMLDetect2x2QPSK(b *testing.B)  { benchML(b, modem.QPSK) }
func BenchmarkMLDetect2x2QAM16(b *testing.B) { benchML(b, modem.QAM16) }
func BenchmarkMLDetect2x2QAM64(b *testing.B) { benchMLShape(b, modem.QAM64, 2) }
func BenchmarkMLDetect3x3QAM16(b *testing.B) { benchMLShape(b, modem.QAM16, 3) }

// benchML times one ML Detect call on a random 2×2 tone.
func benchML(b *testing.B, scheme modem.Scheme) { benchMLShape(b, scheme, 2) }

// benchMLShape times one ML Detect call on a random n×n tone.
func benchMLShape(b *testing.B, scheme modem.Scheme, n int) {
	r := rand.New(rand.NewSource(7))
	d, err := NewML(scheme, n)
	if err != nil {
		b.Fatal(err)
	}
	h := []*cmatrix.Matrix{randChannel(r, n, n)}
	if err := d.Prepare(h, 0.01); err != nil {
		b.Fatal(err)
	}
	y := make([]complex128, n)
	for i := range y {
		y[i] = complex(r.NormFloat64(), r.NormFloat64())
	}
	llr := make([][]float64, n)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for s := range llr {
			llr[s] = llr[s][:0]
		}
		if _, err := d.Detect(llr, 0, y); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMLDetectTo52Tones times the batched receive path's call: DetectTo
// with a worker scratch over the 52 data tones of one prepared 2×2 16-QAM
// channel, the rx-mcs12-2x2-ml shape. It reports ns per tone.
func BenchmarkMLDetectTo52Tones(b *testing.B) {
	r := rand.New(rand.NewSource(8))
	det, err := NewML(modem.QAM16, 2)
	if err != nil {
		b.Fatal(err)
	}
	h := randChannels(r, 52, 2, 2)
	if err := det.Prepare(h, 0.01); err != nil {
		b.Fatal(err)
	}
	sc := det.NewScratch()
	out := make([]float64, 2*modem.QAM16.BitsPerSymbol())
	y := make([][]complex128, len(h))
	for k := range y {
		y[k] = []complex128{complex(r.NormFloat64(), r.NormFloat64()), complex(r.NormFloat64(), r.NormFloat64())}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k, yk := range y {
			if err := det.DetectTo(sc, out, k, yk); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(y)), "ns/tone")
}

// exhaustiveML is the reference joint ML detector: it searches all M^N_SS
// hypotheses of one tone and returns the stream-major max-log LLRs, the
// argmin hypothesis's points and its metric ‖y − H·s‖².
func exhaustiveML(h *cmatrix.Matrix, points []complex128, nbpsc int, noiseVar float64, y []complex128) ([]float64, []complex128, float64) {
	nss, m := h.Cols, len(points)
	totalBits := nss * nbpsc
	d0, d1 := make([]float64, totalBits), make([]float64, totalBits)
	for b := range d0 {
		d0[b], d1[b] = math.Inf(1), math.Inf(1)
	}
	nHyp := 1
	for i := 0; i < nss; i++ {
		nHyp *= m
	}
	pt := make([]int, nss)
	bestDist, bestHyp := math.Inf(1), 0
	for hyp := 0; hyp < nHyp; hyp++ {
		rem := hyp
		for i := range pt {
			pt[i] = rem % m
			rem /= m
		}
		var dist float64
		for r := 0; r < h.Rows; r++ {
			var acc complex128
			for c := 0; c < nss; c++ {
				acc += h.At(r, c) * points[pt[c]]
			}
			diff := y[r] - acc
			dist += real(diff)*real(diff) + imag(diff)*imag(diff)
		}
		if dist < bestDist {
			bestDist, bestHyp = dist, hyp
		}
		for i, p := range pt {
			for b := 0; b < nbpsc; b++ {
				idx := i*nbpsc + b
				if (p>>uint(b))&1 == 0 {
					d0[idx] = math.Min(d0[idx], dist)
				} else {
					d1[idx] = math.Min(d1[idx], dist)
				}
			}
		}
	}
	llr := make([]float64, totalBits)
	for idx := range llr {
		llr[idx] = (d1[idx] - d0[idx]) / noiseVar
	}
	hard := make([]complex128, nss)
	for i := range hard {
		hard[i] = points[bestHyp%m]
		bestHyp /= m
	}
	return llr, hard, bestDist
}

// jointMetric returns ‖y − H·s‖².
func jointMetric(h *cmatrix.Matrix, s, y []complex128) float64 {
	var dist float64
	for r, v := range h.MulVec(s) {
		diff := y[r] - v
		dist += real(diff)*real(diff) + imag(diff)*imag(diff)
	}
	return dist
}

// TestMLMatchesExhaustive is the ML detector's oracle property: over every
// constellation, 1–4 streams, N_RX ∈ {N_SS−1, N_SS, N_SS+1} and every
// joint constellation up to 2^16 points, the reduced search returns the
// exhaustive search's max-log LLRs (to rounding, with identical signs) and
// its Equalize returns the exhaustive argmin. The last tone of each case
// has a dead channel column, whose streams carry exactly-zero LLRs; there
// the argmin is a tie, so Equalize must reach the minimum metric instead.
func TestMLMatchesExhaustive(t *testing.T) {
	r := rand.New(rand.NewSource(44))
	sign := func(v float64) int {
		switch {
		case v > 0:
			return 1
		case v < 0:
			return -1
		}
		return 0
	}
	for _, scheme := range []modem.Scheme{modem.BPSK, modem.QPSK, modem.QAM16, modem.QAM64} {
		nbpsc := scheme.BitsPerSymbol()
		points := modem.NewMapper(scheme).Points()
		for nss := 1; nss <= 4 && nss*nbpsc <= 16; nss++ {
			for nrx := max(nss-1, 1); nrx <= nss+1; nrx++ {
				det, err := NewML(scheme, nss)
				if err != nil {
					t.Fatal(err)
				}
				h := randChannels(r, 4, nrx, nss)
				dead := h[len(h)-1]
				col := r.Intn(nss)
				for row := 0; row < nrx; row++ {
					dead.Set(row, col, 0)
				}
				const noiseVar = 0.1
				if err := det.Prepare(h, noiseVar); err != nil {
					t.Fatal(err)
				}
				sc := det.NewScratch()
				out := make([]float64, nss*nbpsc)
				eq := make([]complex128, nss)
				x := make([]complex128, nss)
				for k, hk := range h {
					for trial := 0; trial < 3; trial++ {
						for i := range x {
							x[i] = points[r.Intn(len(points))]
						}
						y := hk.MulVec(x)
						for i := range y {
							y[i] += complex(r.NormFloat64(), r.NormFloat64()) * complex(math.Sqrt(noiseVar/2), 0)
						}
						want, wantHard, wantDist := exhaustiveML(hk, points, nbpsc, noiseVar, y)
						if err := det.DetectTo(sc, out, k, y); err != nil {
							t.Fatal(err)
						}
						name := fmt.Sprintf("%v nss=%d nrx=%d k=%d trial=%d", scheme, nss, nrx, k, trial)
						for i := range want {
							if diff := math.Abs(out[i] - want[i]); diff > 1e-9*math.Max(1, math.Abs(want[i])) {
								t.Fatalf("%s llr[%d]: got %v, exhaustive %v", name, i, out[i], want[i])
							}
							if sign(out[i]) != sign(want[i]) {
								t.Fatalf("%s llr[%d]: sign of %v differs from exhaustive %v", name, i, out[i], want[i])
							}
						}
						if err := det.Equalize(eq, k, y); err != nil {
							t.Fatal(err)
						}
						if hk == dead {
							if got := jointMetric(hk, eq, y); got-wantDist > 1e-9*math.Max(1, wantDist) {
								t.Fatalf("%s: Equalize metric %v, exhaustive minimum %v", name, got, wantDist)
							}
							continue
						}
						for i := range eq {
							if eq[i] != wantHard[i] {
								t.Fatalf("%s: Equalize stream %d = %v, exhaustive argmin %v", name, i, eq[i], wantHard[i])
							}
						}
					}
				}
			}
		}
	}
}

// TestMLSteadyStateAllocFree pins the ML detector's allocation contract for
// one shape per generated kernel: once Prepare has sized a detector, its
// first Equalize and Detect allocate nothing, and neither do a repeated
// Prepare or DetectTo on a worker scratch.
func TestMLSteadyStateAllocFree(t *testing.T) {
	r := rand.New(rand.NewSource(45))
	for _, c := range []struct {
		scheme   modem.Scheme
		nss, nrx int
	}{
		{modem.BPSK, 1, 2}, {modem.QPSK, 2, 2}, {modem.QAM16, 2, 2}, {modem.QAM16, 3, 3}, {modem.QAM64, 2, 2},
	} {
		const runs = 10
		h := randChannels(r, 52, c.nrx, c.nss)
		// AllocsPerRun makes one warm-up call before it measures, so every
		// call gets a fresh detector: each Equalize is its detector's first.
		dets := make([]Detector, runs+1)
		for i := range dets {
			det, err := NewML(c.scheme, c.nss)
			if err != nil {
				t.Fatal(err)
			}
			if err := det.Prepare(h, 0.05); err != nil {
				t.Fatal(err)
			}
			dets[i] = det
		}
		sc := dets[0].NewScratch()
		nb := c.scheme.BitsPerSymbol()
		out := make([]float64, c.nss*nb)
		eq := make([]complex128, c.nss)
		llr := make([][]float64, c.nss)
		for i := range llr {
			llr[i] = make([]float64, 0, nb)
		}
		y := make([]complex128, c.nrx)
		for i := range y {
			y[i] = complex(r.NormFloat64(), r.NormFloat64())
		}
		next := 0
		allocs := testing.AllocsPerRun(runs, func() {
			det := dets[next]
			next++
			if err := det.Equalize(eq, 7, y); err != nil {
				t.Fatal(err)
			}
			for i := range llr {
				llr[i] = llr[i][:0]
			}
			if _, err := det.Detect(llr, 7, y); err != nil {
				t.Fatal(err)
			}
			if err := det.Prepare(h, 0.05); err != nil {
				t.Fatal(err)
			}
			if err := det.DetectTo(sc, out, 7, y); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%v %dx%d: first Equalize+Detect, Prepare, DetectTo: %v allocs, want 0", c.scheme, c.nrx, c.nss, allocs)
		}
	}
}

// randChannels builds nk random nrx×nss channel matrices.
func randChannels(r *rand.Rand, nk, nrx, nss int) []*cmatrix.Matrix {
	h := make([]*cmatrix.Matrix, nk)
	for k := range h {
		h[k] = randChannel(r, nrx, nss)
	}
	return h
}

// TestDetectToMatchesDetect pins the batch-path contract: for every detector
// family, DetectTo with per-worker scratch writes exactly the LLR values
// Detect appends, in stream-major order, and for the linear and SIC
// families both equal referenceDetect.
func TestDetectToMatchesDetect(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for _, name := range []string{"zf", "mmse", "sic", "ml"} {
		for _, scheme := range []modem.Scheme{modem.BPSK, modem.QPSK, modem.QAM16, modem.QAM64} {
			for nss := 1; nss <= 3; nss++ {
				if name == "ml" && nss*scheme.BitsPerSymbol() > 16 {
					continue // beyond the joint constellation NewML accepts
				}
				det, err := NewDetector(name, scheme, nss)
				if err != nil {
					t.Fatal(err)
				}
				nrx := nss + 1
				h := randChannels(r, 8, nrx, nss)
				if err := det.Prepare(h, 0.05); err != nil {
					t.Fatal(err)
				}
				nb := scheme.BitsPerSymbol()
				sc := det.NewScratch()
				out := make([]float64, nss*nb)
				llr := make([][]float64, nss)
				y := make([]complex128, nrx)
				for k := range h {
					for i := range y {
						y[i] = complex(r.NormFloat64(), r.NormFloat64())
					}
					for i := range llr {
						llr[i] = llr[i][:0]
					}
					if _, err := det.Detect(llr, k, y); err != nil {
						t.Fatal(err)
					}
					if err := det.DetectTo(sc, out, k, y); err != nil {
						t.Fatal(err)
					}
					ref := referenceDetect(det, k, y)
					for i := 0; i < nss; i++ {
						for b := 0; b < nb; b++ {
							if got, want := out[i*nb+b], llr[i][b]; got != want {
								t.Fatalf("%s/%v nss=%d k=%d stream=%d bit=%d: DetectTo %v != Detect %v",
									name, scheme, nss, k, i, b, got, want)
							}
							if ref != nil && math.Float64bits(out[i*nb+b]) != math.Float64bits(ref[i][b]) {
								t.Fatalf("%s/%v nss=%d k=%d stream=%d bit=%d: DetectTo %v != reference %v",
									name, scheme, nss, k, i, b, out[i*nb+b], ref[i][b])
							}
						}
					}
				}
			}
		}
	}
}

// referenceDetect is the stand-alone per-tone body the linear and SIC
// families' Detect had before it became a wrapper of DetectTo, kept as
// DetectTo's oracle: it appends each stream's LLRs with Demapper.SoftOne
// and, for SIC, cancels on a freshly allocated residual. It returns nil for
// ML, whose oracles are exhaustiveML and referenceSearch.
func referenceDetect(det Detector, k int, y []complex128) [][]float64 {
	switch d := det.(type) {
	case *linearDetector:
		s := make([]complex128, d.nss)
		d.w[k].MulVecInto(s, y)
		llr := make([][]float64, d.nss)
		for i := range llr {
			llr[i] = d.demapper.SoftOne(nil, s[i], d.noiseVar, d.csi[k][i])
		}
		return llr
	case *sicDetector:
		plan := &d.plans[k]
		llr := make([][]float64, d.nss)
		resid := append([]complex128(nil), y...)
		for stage, stream := range plan.order {
			var s complex128
			for j, w := range plan.w[stage] {
				s += w * resid[j]
			}
			llr[stream] = d.demapper.SoftOne(llr[stream], s, d.noiseVar, plan.csi[stage])
			point := d.mapper.MapOne(d.demapper.HardOne(nil, s))
			for r := 0; r < plan.h.Rows; r++ {
				resid[r] -= plan.h.At(r, stream) * point
			}
		}
		return llr
	}
	return nil
}

// referenceSearch is the ML enumeration the generated kernels replaced,
// kept as their bit-exact oracle. It enumerates the prefixes of streams
// 1…N_SS−1 as an odometer with stream 1 the fastest digit, keeping the
// partial residual of each stream layer so a digit change costs one
// subtraction per antenna. It leaves stream 0's per-bit minima in
// sc.d0/sc.d1, the per-point minima of streams ≥ 1 in sc.ptMin, and the
// best prefix with its u in sc.bestPrefix/sc.bestU.
func referenceSearch(d *mlDetector, sc *DetectScratch, k int, y []complex128) {
	nrx, nss, m := d.nrx, d.nss, len(d.points)
	if len(sc.res) < nss*nrx {
		sc.res = make([]complex128, nss*nrx)
	}
	g := d.g[k]
	w0 := d.w0[k*nrx : (k+1)*nrx]
	hs := d.hs[k*(nss-1)*m*nrx : (k+1)*(nss-1)*m*nrx]
	bitsI, bitsQ := d.nbpsc-d.nbpsc/2, d.nbpsc/2
	inf := math.Inf(1)
	d0, d1 := [6]float64{inf, inf, inf, inf, inf, inf}, [6]float64{inf, inf, inf, inf, inf, inf}
	ptMin := sc.ptMin[:(nss-1)*m]
	for i := range ptMin {
		ptMin[i] = inf
	}
	digits := sc.digits[:nss]
	// Layer j (1…nss) occupies res[(j−1)·nrx : j·nrx] and holds
	// y − Σ_{i≥j} h_i s_i; layer nss is y itself and layer 1 is e.
	res := sc.res[:nss*nrx]
	copy(res[(nss-1)*nrx:], y[:nrx])
	setLayer := func(j int) {
		lj, above := res[(j-1)*nrx:j*nrx], res[j*nrx:(j+1)*nrx]
		hp := hs[((j-1)*m+digits[j])*nrx:]
		for r := range lj {
			lj[r] = above[r] - hp[r]
		}
	}
	for j := nss - 1; j >= 1; j-- {
		digits[j] = 0
		setLayer(j)
	}
	bestMetric := inf
	for pfx := 0; ; pfx++ {
		var ee float64
		var u complex128
		for r, v := range res[:nrx] {
			ee += real(v)*real(v) + imag(v)*imag(v)
			u += w0[r] * v
		}
		c := ee - g*(real(u)*real(u)+imag(u)*imag(u))
		var mI0, mI1, mQ0, mQ1 [3]float64
		minI := referenceAxisMins(d.levI, real(u), mI0[:bitsI], mI1[:bitsI])
		minQ := referenceAxisMins(d.levQ, imag(u), mQ0[:bitsQ], mQ1[:bitsQ])
		best := c + g*(minI+minQ)
		for b := 0; b < bitsI; b++ {
			d0[b] = min(d0[b], c+g*(mI0[b]+minQ))
			d1[b] = min(d1[b], c+g*(mI1[b]+minQ))
		}
		for b := 0; b < bitsQ; b++ {
			d0[bitsI+b] = min(d0[bitsI+b], c+g*(minI+mQ0[b]))
			d1[bitsI+b] = min(d1[bitsI+b], c+g*(minI+mQ1[b]))
		}
		for j := 1; j < nss; j++ {
			if p := &ptMin[(j-1)*m+digits[j]]; best < *p {
				*p = best
			}
		}
		if best < bestMetric {
			bestMetric, sc.bestPrefix, sc.bestU = best, pfx, u
		}
		// Advance the odometer and rebuild the layers below the highest
		// digit that moved.
		j := 1
		for ; j < nss; j++ {
			if digits[j]++; digits[j] < m {
				break
			}
			digits[j] = 0
		}
		if j == nss {
			break
		}
		for ; j >= 1; j-- {
			setLayer(j)
		}
	}
	sc.d0, sc.d1 = d0, d1
}

// referenceAxisMins returns the smallest squared distance from v to the
// PAM levels of one axis and writes, for each axis bit b, the smallest
// distance over levels whose index has bit b clear (m0[b]) or set (m1[b]).
func referenceAxisMins(levels []float64, v float64, m0, m1 []float64) float64 {
	inf := math.Inf(1)
	for b := range m0 {
		m0[b], m1[b] = inf, inf
	}
	best := inf
	for pat, lv := range levels {
		dd := (v - lv) * (v - lv)
		best = min(best, dd)
		for b := range m0 {
			if (pat>>uint(b))&1 == 0 {
				m0[b] = min(m0[b], dd)
			} else {
				m1[b] = min(m1[b], dd)
			}
		}
	}
	return best
}

// referenceLLRs turns referenceSearch's minima into the stream-major LLRs
// DetectTo writes.
func referenceLLRs(d *mlDetector, sc *DetectScratch, out []float64) {
	for b := 0; b < d.nbpsc; b++ {
		out[b] = (sc.d1[b] - sc.d0[b]) / d.noiseVar
	}
	m := len(d.points)
	for j := 1; j < d.nss; j++ {
		pm := sc.ptMin[(j-1)*m : j*m]
		for b := 0; b < d.nbpsc; b++ {
			d0, d1 := math.Inf(1), math.Inf(1)
			for p, v := range pm {
				if (p>>uint(b))&1 == 0 {
					d0 = min(d0, v)
				} else {
					d1 = min(d1, v)
				}
			}
			out[j*d.nbpsc+b] = (d1 - d0) / d.noiseVar
		}
	}
}

// referenceEqualize turns referenceSearch's best prefix and u into the hard
// decisions Equalize writes.
func referenceEqualize(d *mlDetector, sc *DetectScratch, dst []complex128) {
	m := len(d.points)
	rem := sc.bestPrefix
	for j := 1; j < d.nss; j++ {
		dst[j] = d.points[rem%m]
		rem /= m
	}
	iPat := nearestLevel(d.levI, real(sc.bestU))
	qPat := nearestLevel(d.levQ, imag(sc.bestU))
	dst[0] = d.points[iPat|qPat<<uint(d.nbpsc-d.nbpsc/2)]
}

// TestLORDMatchesReference pins the generated kernels to referenceSearch bit
// for bit over every shape NewML accepts (BPSK…64-QAM, N_SS 1–4, N_RX 1–4):
// LLRs under math.Float64bits, the best prefix, its u and Equalize's
// decisions. Each shape runs random noisy tones, noiseless tones y = H·x,
// tones with y = 0 (every prefix ties exactly with its negation, so the
// strict < tie-break decides the best prefix), and a channel with a dead
// column.
func TestLORDMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(46))
	ties := 0
	for _, scheme := range []modem.Scheme{modem.BPSK, modem.QPSK, modem.QAM16, modem.QAM64} {
		nbpsc := scheme.BitsPerSymbol()
		for nss := 1; nss <= 4 && nss*nbpsc <= 16; nss++ {
			for nrx := 1; nrx <= 4; nrx++ {
				det, err := NewML(scheme, nss)
				if err != nil {
					t.Fatal(err)
				}
				d := det.(*mlDetector)
				h := randChannels(r, 4, nrx, nss)
				dead := h[len(h)-1]
				col := r.Intn(nss)
				for row := 0; row < nrx; row++ {
					dead.Set(row, col, 0)
				}
				const noiseVar = 0.1
				if err := d.Prepare(h, noiseVar); err != nil {
					t.Fatal(err)
				}
				sc, ref := d.NewScratch(), d.NewScratch()
				got, want := make([]float64, nss*nbpsc), make([]float64, nss*nbpsc)
				eqGot, eqWant := make([]complex128, nss), make([]complex128, nss)
				x := make([]complex128, nss)
				for k, hk := range h {
					for trial := 0; trial < 6; trial++ {
						for i := range x {
							x[i] = d.points[r.Intn(len(d.points))]
						}
						y := hk.MulVec(x)
						switch trial {
						case 0:
							y = make([]complex128, nrx)
						case 1:
							// noiseless
						default:
							for i := range y {
								y[i] += complex(r.NormFloat64(), r.NormFloat64()) * complex(math.Sqrt(noiseVar/2), 0)
							}
						}
						name := fmt.Sprintf("%v nss=%d nrx=%d k=%d trial=%d", scheme, nss, nrx, k, trial)
						if err := d.DetectTo(sc, got, k, y); err != nil {
							t.Fatal(err)
						}
						referenceSearch(d, ref, k, y)
						referenceLLRs(d, ref, want)
						for i := range want {
							if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
								t.Fatalf("%s llr[%d]: kernel %v, reference %v", name, i, got[i], want[i])
							}
						}
						if sc.bestPrefix != ref.bestPrefix {
							t.Fatalf("%s: best prefix %d, reference %d", name, sc.bestPrefix, ref.bestPrefix)
						}
						if math.Float64bits(real(sc.bestU)) != math.Float64bits(real(ref.bestU)) ||
							math.Float64bits(imag(sc.bestU)) != math.Float64bits(imag(ref.bestU)) {
							t.Fatalf("%s: u %v, reference %v", name, sc.bestU, ref.bestU)
						}
						if err := d.Equalize(eqGot, k, y); err != nil {
							t.Fatal(err)
						}
						referenceEqualize(d, ref, eqWant)
						for i := range eqWant {
							if eqGot[i] != eqWant[i] {
								t.Fatalf("%s: Equalize stream %d = %v, reference %v", name, i, eqGot[i], eqWant[i])
							}
						}
						if trial == 0 && nss == 2 && hk != dead {
							ties += countMinima(ref.ptMin[:len(d.points)]) - 1
						}
					}
				}
			}
		}
	}
	if ties == 0 {
		t.Fatal("no y = 0 tone produced a tied best metric")
	}
}

// countMinima returns how many entries of v equal its minimum.
func countMinima(v []float64) int {
	lo, n := math.Inf(1), 0
	for _, x := range v {
		switch {
		case x < lo:
			lo, n = x, 1
		case x == lo:
			n++
		}
	}
	return n
}

// TestNewDetectorRejectsStreamCount checks that every detector constructor
// reached by name, and NewML directly, return an error rather than panic
// for a stream count outside 1…4.
func TestNewDetectorRejectsStreamCount(t *testing.T) {
	for _, name := range []string{"zf", "mmse", "sic", "ml"} {
		for _, nss := range []int{0, -1, 5} {
			if _, err := NewDetector(name, modem.QPSK, nss); err == nil {
				t.Errorf("NewDetector(%q, QPSK, %d): no error", name, nss)
			}
		}
	}
	for _, nss := range []int{0, -1, 5} {
		if _, err := NewML(modem.BPSK, nss); err == nil {
			t.Errorf("NewML(BPSK, %d): no error", nss)
		}
	}
}
