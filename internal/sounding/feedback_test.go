package sounding

import (
	"encoding/binary"
	"errors"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"repro/internal/cmatrix"
)

// randomChannel draws nsc well-conditioned-ish Rayleigh channel matrices.
func randomChannel(r *rand.Rand, nsc, rows, cols int) []*cmatrix.Matrix {
	h := make([]*cmatrix.Matrix, nsc)
	for k := range h {
		m := cmatrix.New(rows, cols)
		for i := range m.Data {
			m.Data[i] = complex(r.NormFloat64(), r.NormFloat64()) * complex(math.Sqrt(0.5), 0)
		}
		h[k] = m
	}
	return h
}

func TestAnalyzeRankDeficientDegrades(t *testing.T) {
	// All-zero channel: a degraded single-stream report, not an error.
	dead := make([]*cmatrix.Matrix, 8)
	for i := range dead {
		dead[i] = cmatrix.New(2, 2)
	}
	rep, err := Analyze(dead, 100)
	if err != nil {
		t.Fatalf("all-zero channel must degrade, not error: %v", err)
	}
	if rep.RecommendedStreams != 1 {
		t.Errorf("all-zero channel recommended %d streams, want 1", rep.RecommendedStreams)
	}
	if rep.CapacityBps != 0 {
		t.Errorf("all-zero channel capacity %g, want 0", rep.CapacityBps)
	}
	if rep.DeadSubcarriers != 8 {
		t.Errorf("DeadSubcarriers = %d, want 8", rep.DeadSubcarriers)
	}

	// Regression: one dead tone among well-conditioned ones must not poison
	// the mean condition number (it used to contribute the 150 dB cap to the
	// average, collapsing the recommendation to one stream).
	good := cmatrix.FromRows([][]complex128{{1, 0.1}, {0.1, 1}})
	mixed := []*cmatrix.Matrix{good, cmatrix.New(2, 2), good, good}
	rep, err = Analyze(mixed, 100)
	if err != nil {
		t.Fatal(err)
	}
	if rep.DeadSubcarriers != 1 {
		t.Errorf("DeadSubcarriers = %d, want 1", rep.DeadSubcarriers)
	}
	if rep.MeanConditionDB > 20 {
		t.Errorf("one dead tone poisoned the condition mean: %g dB", rep.MeanConditionDB)
	}
	if rep.RecommendedStreams != 2 {
		t.Errorf("recommended %d streams with a healthy majority, want 2", rep.RecommendedStreams)
	}
}

func TestPerStreamSNR(t *testing.T) {
	// Identity channel, SNR 100: ZF noise gain 1 per stream, so each
	// stream's post-detection SNR is snr/nt = 50 → ~17 dB.
	rep, err := Analyze([]*cmatrix.Matrix{cmatrix.Identity(2)}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.PerStreamSNRdB) != 2 {
		t.Fatalf("PerStreamSNRdB = %v, want 2 entries", rep.PerStreamSNRdB)
	}
	want := 10 * math.Log10(50)
	for s, got := range rep.PerStreamSNRdB {
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("stream %d SNR %g dB, want %g", s, got, want)
		}
	}

	// A nearly rank-starved channel amplifies ZF noise: per-stream SNR must
	// fall well below the identity channel's.
	bad := cmatrix.FromRows([][]complex128{{1, 0.999}, {0.999, 1}})
	repBad, err := Analyze([]*cmatrix.Matrix{bad}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(repBad.PerStreamSNRdB) != 2 {
		t.Fatalf("PerStreamSNRdB = %v, want 2 entries", repBad.PerStreamSNRdB)
	}
	if repBad.PerStreamSNRdB[0] > want-10 {
		t.Errorf("correlated channel stream SNR %g dB, want ≪ %g", repBad.PerStreamSNRdB[0], want)
	}
}

func TestFeedbackRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, tc := range []struct {
		rows, cols, nsc, group int
	}{
		{2, 2, 52, 1},
		{2, 2, 52, 2},
		{4, 4, 52, 2},
		{1, 2, 56, 1},
	} {
		h := randomChannel(r, tc.nsc, tc.rows, tc.cols)
		b, err := Quantize(h, tc.group)
		if err != nil {
			t.Fatalf("%dx%d g%d: %v", tc.rows, tc.cols, tc.group, err)
		}
		if len(b) != FeedbackBytes(tc.rows, tc.cols, tc.nsc, tc.group) {
			t.Errorf("%dx%d g%d: encoded %d bytes, FeedbackBytes says %d",
				tc.rows, tc.cols, tc.group, len(b), FeedbackBytes(tc.rows, tc.cols, tc.nsc, tc.group))
		}
		got, err := Dequantize(b)
		if err != nil {
			t.Fatalf("%dx%d g%d dequantize: %v", tc.rows, tc.cols, tc.group, err)
		}
		if len(got) != tc.nsc {
			t.Fatalf("%dx%d g%d: %d tones back, want %d", tc.rows, tc.cols, tc.group, len(got), tc.nsc)
		}
		// The quantizer's bound under test: the capacity and condition
		// metrics of the reconstruction stay close to the original's, so
		// AP-side precoding decisions made on feedback match decisions made
		// on raw matrices.
		orig, err := Analyze(h, 100)
		if err != nil {
			t.Fatal(err)
		}
		rt, err := Analyze(got, 100)
		if err != nil {
			t.Fatal(err)
		}
		capErr := math.Abs(rt.CapacityBps - orig.CapacityBps)
		bound := 0.05*orig.CapacityBps + 0.1
		if tc.group > 1 {
			// Grouping holds tones flat; with i.i.d. per-tone draws this is
			// the worst case for interpolation, so allow a looser bound.
			bound = 0.35*orig.CapacityBps + 0.5
		}
		if capErr > bound {
			t.Errorf("%dx%d g%d: capacity error %.3f b/s/Hz exceeds %.3f (orig %.3f, rt %.3f)",
				tc.rows, tc.cols, tc.group, capErr, bound, orig.CapacityBps, rt.CapacityBps)
		}
		if tc.group == 1 && math.Abs(rt.MeanConditionDB-orig.MeanConditionDB) > 3 {
			t.Errorf("%dx%d: condition drifted %.2f dB over the round trip",
				tc.rows, tc.cols, rt.MeanConditionDB-orig.MeanConditionDB)
		}
	}
}

func TestFeedbackElementError(t *testing.T) {
	// Per-element reconstruction error is bounded by the quantizer design:
	// magnitude within scale/510 + phase arc scale·π/256.
	r := rand.New(rand.NewSource(9))
	h := randomChannel(r, 16, 2, 2)
	b, err := Quantize(h, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Dequantize(b)
	if err != nil {
		t.Fatal(err)
	}
	for k := range h {
		var scale float64
		for _, v := range h[k].Data {
			if a := cmplxAbs(v); a > scale {
				scale = a
			}
		}
		bound := scale * (1.0/510 + math.Pi/256 + 1e-9)
		for i := range h[k].Data {
			if e := cmplxAbs(h[k].Data[i] - got[k].Data[i]); e > bound {
				t.Fatalf("tone %d entry %d error %g exceeds bound %g", k, i, e, bound)
			}
		}
	}
}

func cmplxAbs(v complex128) float64 { return math.Hypot(real(v), imag(v)) }

func TestFeedbackDeadAndNilTones(t *testing.T) {
	good := cmatrix.FromRows([][]complex128{{1, 0}, {0, 1}})
	h := []*cmatrix.Matrix{good, nil, cmatrix.New(2, 2), good}
	b, err := Quantize(h, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Dequantize(b)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 2} {
		if got[k].FrobeniusNorm() != 0 {
			t.Errorf("tone %d should dequantize dead, got %v", k, got[k])
		}
	}
	rep, err := Analyze(got, 100)
	if err != nil {
		t.Fatalf("Analyze over dequantized dead tones: %v", err)
	}
	if rep.DeadSubcarriers != 2 {
		t.Errorf("DeadSubcarriers = %d, want 2", rep.DeadSubcarriers)
	}
}

func TestFeedbackDecodeErrors(t *testing.T) {
	good := randomChannel(rand.New(rand.NewSource(3)), 8, 2, 2)
	b, err := Quantize(good, 1)
	if err != nil {
		t.Fatal(err)
	}
	for name, mut := range map[string][]byte{
		"empty":       {},
		"short":       b[:4],
		"bad-version": append([]byte{99}, b[1:]...),
		"truncated":   b[:len(b)-3],
		"bad-shape":   append([]byte{feedbackVersion, 9, 9}, b[3:]...),
	} {
		if _, err := Dequantize(mut); err == nil {
			t.Errorf("%s input should fail to decode", name)
		}
	}
	if _, err := Quantize(nil, 1); err == nil {
		t.Error("empty quantize input should fail")
	}
	if _, err := Quantize([]*cmatrix.Matrix{nil, nil}, 1); err == nil {
		t.Error("all-nil quantize input should fail")
	}
	ragged := []*cmatrix.Matrix{cmatrix.Identity(2), cmatrix.Identity(3)}
	if _, err := Quantize(ragged, 1); err == nil {
		t.Error("ragged shapes should fail")
	}
}

// TestFeedbackRejectsNonFiniteScale: a station's report with a NaN or
// infinite tone scale is refused, rather than dequantized into NaN entries.
func TestFeedbackRejectsNonFiniteScale(t *testing.T) {
	b, err := Quantize(randomChannel(rand.New(rand.NewSource(4)), 4, 2, 4), 1)
	if err != nil {
		t.Fatal(err)
	}
	second := feedbackHeaderLen + 4 + 2*2*4 // the second kept tone's scale
	for _, v := range []float32{float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN())} {
		for _, off := range []int{feedbackHeaderLen, second} {
			bad := append([]byte(nil), b...)
			binary.BigEndian.PutUint32(bad[off:], math.Float32bits(v))
			if _, err := Dequantize(bad); !errors.Is(err, ErrNonFiniteScale) {
				t.Errorf("scale %v at byte %d: err = %v, want ErrNonFiniteScale", v, off, err)
			}
		}
	}
}

// FuzzDequantize: arbitrary bytes never panic the feedback decoder, and an
// accepted report holds exactly nsc matrices of the stated shape, every
// entry finite.
func FuzzDequantize(f *testing.F) {
	r := rand.New(rand.NewSource(5))
	for _, c := range []struct{ nsc, rows, cols, group int }{{4, 2, 4, 1}, {8, 1, 1, 2}, {56, 4, 4, 4}} {
		h := randomChannel(r, c.nsc, c.rows, c.cols)
		h[0] = nil // a dead tone
		b, err := Quantize(h, c.group)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		out, err := Dequantize(b)
		if err != nil {
			return
		}
		rows, cols, nsc := int(b[1]), int(b[2]), int(binary.BigEndian.Uint16(b[4:]))
		if len(out) != nsc {
			t.Fatalf("%d matrices, header says %d", len(out), nsc)
		}
		for k, m := range out {
			if m == nil || m.Rows != rows || m.Cols != cols {
				t.Fatalf("tone %d: matrix %v, want %dx%d", k, m, rows, cols)
			}
			for _, v := range m.Data {
				if cmplx.IsNaN(v) || cmplx.IsInf(v) {
					t.Fatalf("tone %d: non-finite entry %v", k, v)
				}
			}
		}
	})
}
