package metrics

import (
	"math"
	"testing"
)

func TestBERCounting(t *testing.T) {
	var b BER
	if err := b.AddBits([]byte{0, 1, 1, 0}, []byte{1, 1, 0, 0}); err != nil {
		t.Fatal(err)
	}
	if b.Errors != 2 || b.Total != 4 {
		t.Errorf("BER = %d/%d", b.Errors, b.Total)
	}
	if math.Abs(b.Rate()-0.5) > 1e-12 {
		t.Errorf("Rate = %g", b.Rate())
	}
	if err := b.AddBits([]byte{1}, []byte{1, 0}); err == nil {
		t.Error("mismatched length should error")
	}
}

func TestBERZeroRate(t *testing.T) {
	var b BER
	if b.Rate() != 0 {
		t.Error("empty BER should report 0")
	}
	lo, hi := b.Confidence(1.96)
	if lo != 0 || hi != 1 {
		t.Errorf("empty confidence = [%g, %g]", lo, hi)
	}
}

func TestPER(t *testing.T) {
	var p PER
	for i := 0; i < 90; i++ {
		p.Add(true)
	}
	for i := 0; i < 10; i++ {
		p.Add(false)
	}
	if math.Abs(p.Rate()-0.1) > 1e-12 {
		t.Errorf("PER = %g", p.Rate())
	}
	lo, hi := p.Confidence(1.96)
	if lo >= 0.1 || hi <= 0.1 {
		t.Errorf("interval [%g, %g] should straddle 0.1", lo, hi)
	}
	if lo < 0.04 || hi > 0.20 {
		t.Errorf("interval [%g, %g] implausibly wide for n=100", lo, hi)
	}
	if p.String() == "" {
		t.Error("empty String")
	}
}

func TestWilsonShrinksWithN(t *testing.T) {
	var small, large PER
	for i := 0; i < 10; i++ {
		small.Add(i != 0)
	}
	for i := 0; i < 1000; i++ {
		large.Add(i%10 != 0)
	}
	sl, sh := small.Confidence(1.96)
	ll, lh := large.Confidence(1.96)
	if lh-ll >= sh-sl {
		t.Error("interval did not shrink with sample size")
	}
}

func TestEVM(t *testing.T) {
	var e EVM
	e.Add(complex(1.1, 0), complex(1, 0))
	e.Add(complex(0, 1), complex(0, 1))
	want := math.Sqrt(0.01 / 2)
	if math.Abs(e.RMS()-want) > 1e-12 {
		t.Errorf("RMS = %g, want %g", e.RMS(), want)
	}
	if e.Count() != 2 {
		t.Errorf("Count = %d", e.Count())
	}
	snr := e.SNRdB()
	wantSNR := -20 * math.Log10(want)
	if math.Abs(snr-wantSNR) > 1e-9 {
		t.Errorf("SNRdB = %g, want %g", snr, wantSNR)
	}
	var clean EVM
	clean.Add(1, 1)
	if !math.IsInf(clean.SNRdB(), 1) {
		t.Error("zero EVM should give +Inf SNR")
	}
}
