package est

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/modem"
)

func awgn(r *rand.Rand, x []complex128, snrDB float64) []complex128 {
	sigma := math.Sqrt(math.Pow(10, -snrDB/10) / 2)
	out := make([]complex128, len(x))
	for i, v := range x {
		out[i] = v + complex(r.NormFloat64()*sigma, r.NormFloat64()*sigma)
	}
	return out
}

func qpskBlock(r *rand.Rand, n int) []complex128 {
	m := modem.NewMapper(modem.QPSK)
	out := make([]complex128, n)
	for i := range out {
		out[i] = m.MapOne([]byte{byte(r.Intn(2)), byte(r.Intn(2))})
	}
	return out
}

func TestM2M4TracksQPSK(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for _, snrDB := range []float64{5, 10, 15, 20} {
		var acc float64
		const trials = 30
		for i := 0; i < trials; i++ {
			x := qpskBlock(r, 2000)
			rx := awgn(r, x, snrDB)
			snr, err := M2M4(rx)
			if err != nil {
				t.Fatal(err)
			}
			acc += snr
		}
		gotDB := DB(acc / trials)
		if math.Abs(gotDB-snrDB) > 1.5 {
			t.Errorf("QPSK true %g dB: M2M4 %g dB", snrDB, gotDB)
		}
	}
}

func TestM2M4BiasedFor64QAM(t *testing.T) {
	// The known limitation: non-constant-modulus constellations violate the
	// ka=1 assumption, so the estimate departs from truth at high SNR.
	r := rand.New(rand.NewSource(3))
	m := modem.NewMapper(modem.QAM64)
	x := make([]complex128, 20000)
	for i := range x {
		bits := make([]byte, 6)
		for j := range bits {
			bits[j] = byte(r.Intn(2))
		}
		x[i] = m.MapOne(bits)
	}
	rx := awgn(r, x, 30)
	snr, err := M2M4(rx)
	if err != nil {
		t.Fatal(err)
	}
	gotDB := DB(snr)
	if math.Abs(gotDB-30) < 2 {
		t.Errorf("M2M4 on 64-QAM at 30 dB returned %g dB; expected visible bias", gotDB)
	}
}

func TestM2M4Degenerate(t *testing.T) {
	if _, err := M2M4(make([]complex128, 4)); err == nil {
		t.Error("too few samples should fail")
	}
	r := rand.New(rand.NewSource(4))
	noise := make([]complex128, 1000)
	for i := range noise {
		noise[i] = complex(r.NormFloat64(), r.NormFloat64())
	}
	snr, err := M2M4(noise)
	if err != nil {
		t.Fatal(err)
	}
	if snr > 0.5 {
		t.Errorf("pure noise: M2M4 = %g, want ≈ 0", snr)
	}
}

func TestDB(t *testing.T) {
	if got := DB(100); math.Abs(got-20) > 1e-12 {
		t.Errorf("DB(100) = %g", got)
	}
	if !math.IsInf(DB(0), -1) {
		t.Error("DB(0) should be -Inf")
	}
}
