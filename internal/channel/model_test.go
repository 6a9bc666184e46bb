package channel

import (
	"math"
	"math/cmplx"
	"testing"

	"repro/internal/dsp"
)

func constBurst(ntx, n int) [][]complex128 {
	tx := make([][]complex128, ntx)
	for t := range tx {
		s := make([]complex128, n)
		for i := range s {
			s[i] = complex(1/math.Sqrt(float64(ntx)), 0)
		}
		tx[t] = s
	}
	return tx
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{NumTX: 0, NumRX: 1}); err == nil {
		t.Error("0 TX should fail")
	}
	if _, err := New(Config{NumTX: 1, NumRX: 5}); err == nil {
		t.Error("5 RX should fail")
	}
	if _, err := New(Config{NumTX: 1, NumRX: 1, CFOHz: 100}); err == nil {
		t.Error("CFO without SampleRate should fail")
	}
	if _, err := New(Config{NumTX: 1, NumRX: 1, TimingOffset: -1}); err == nil {
		t.Error("negative timing offset should fail")
	}
}

func TestModelNames(t *testing.T) {
	for m := Identity; m <= TGnF; m++ {
		got, err := ParseModel(m.String())
		if err != nil || got != m {
			t.Errorf("ParseModel(%q) = %v, %v", m.String(), got, err)
		}
	}
	if _, err := ParseModel("nope"); err == nil {
		t.Error("unknown name should fail")
	}
}

func TestIdentityNoNoisePassesThrough(t *testing.T) {
	c, err := New(Config{NumTX: 2, NumRX: 2, Model: Identity, NoNoise: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	tx := constBurst(2, 100)
	rx, err := c.Apply(tx)
	if err != nil {
		t.Fatal(err)
	}
	for a := range rx {
		for i := 0; i < 100; i++ {
			if cmplx.Abs(rx[a][i]-tx[a][i]) > 1e-15 {
				t.Fatalf("antenna %d sample %d modified", a, i)
			}
		}
	}
}

func TestApplyValidation(t *testing.T) {
	c, _ := New(Config{NumTX: 2, NumRX: 2, Seed: 1})
	if _, err := c.Apply(constBurst(1, 10)); err == nil {
		t.Error("wrong stream count should fail")
	}
	if _, err := c.Apply([][]complex128{make([]complex128, 5), make([]complex128, 6)}); err == nil {
		t.Error("ragged streams should fail")
	}
	if _, err := c.Apply([][]complex128{{}, {}}); err == nil {
		t.Error("empty burst should fail")
	}
}

func TestSNRCalibration(t *testing.T) {
	// With identity channel and unit-power TX, measured SNR must match the
	// configured value.
	for _, snrDB := range []float64{0, 10, 20} {
		c, err := New(Config{NumTX: 1, NumRX: 1, Model: Identity, SNRdB: snrDB, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		n := 50000
		tx := constBurst(1, n)
		rx, err := c.Apply(tx)
		if err != nil {
			t.Fatal(err)
		}
		var noisePow float64
		for i := range rx[0] {
			d := rx[0][i] - tx[0][i]
			noisePow += real(d)*real(d) + imag(d)*imag(d)
		}
		noisePow /= float64(n)
		gotSNR := 10 * math.Log10(1/noisePow)
		if math.Abs(gotSNR-snrDB) > 0.3 {
			t.Errorf("configured %g dB, measured %g dB", snrDB, gotSNR)
		}
	}
}

func TestRayleighUnitAveragePower(t *testing.T) {
	c, err := New(Config{NumTX: 2, NumRX: 2, Model: FlatRayleigh, NoNoise: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var acc float64
	const trials = 400
	for i := 0; i < trials; i++ {
		rx, err := c.Apply(constBurst(2, 4))
		if err != nil {
			t.Fatal(err)
		}
		taps := c.Taps()
		if len(taps) != 2 || len(taps[0]) != 2 || len(taps[0][0]) != 1 {
			t.Fatalf("taps shape wrong: %d RX", len(taps))
		}
		_ = rx
		for rxA := range taps {
			for txA := range taps[rxA] {
				acc += sq(taps[rxA][txA][0])
			}
		}
	}
	mean := acc / (trials * 4)
	if math.Abs(mean-1) > 0.1 {
		t.Errorf("mean tap power %g, want 1", mean)
	}
}

func sq(v complex128) float64 { return real(v)*real(v) + imag(v)*imag(v) }

func TestTGnTapsEnergyAndSpread(t *testing.T) {
	for _, m := range []Model{TGnB, TGnD, TGnF} {
		c, err := New(Config{NumTX: 1, NumRX: 1, Model: m, NoNoise: true, Seed: 4})
		if err != nil {
			t.Fatal(err)
		}
		var energy float64
		var nTaps int
		const trials = 500
		for i := 0; i < trials; i++ {
			if _, err := c.Apply(constBurst(1, 4)); err != nil {
				t.Fatal(err)
			}
			taps := c.Taps()[0][0]
			nTaps = len(taps)
			for _, g := range taps {
				energy += sq(g)
			}
		}
		energy /= trials
		if math.Abs(energy-1) > 0.1 {
			t.Errorf("%v: mean tap energy %g, want 1", m, energy)
		}
		wantTaps := int(math.Ceil(4*m.rmsDelayNs()/50)) + 1
		if nTaps != wantTaps {
			t.Errorf("%v: %d taps, want %d", m, nTaps, wantTaps)
		}
	}
}

func TestFreezeKeepsTaps(t *testing.T) {
	c, _ := New(Config{NumTX: 1, NumRX: 1, Model: FlatRayleigh, NoNoise: true, Freeze: true, Seed: 5})
	if _, err := c.Apply(constBurst(1, 4)); err != nil {
		t.Fatal(err)
	}
	first := c.Taps()[0][0][0]
	if _, err := c.Apply(constBurst(1, 4)); err != nil {
		t.Fatal(err)
	}
	if c.Taps()[0][0][0] != first {
		t.Error("frozen channel redrew taps")
	}
	c2, _ := New(Config{NumTX: 1, NumRX: 1, Model: FlatRayleigh, NoNoise: true, Seed: 5})
	c2.Apply(constBurst(1, 4))
	h1 := c2.Taps()[0][0][0]
	c2.Apply(constBurst(1, 4))
	if c2.Taps()[0][0][0] == h1 {
		t.Error("unfrozen channel did not redraw taps")
	}
}

func TestCFOImpartsExpectedRotation(t *testing.T) {
	const cfoHz = 10e3
	c, err := New(Config{NumTX: 1, NumRX: 1, Model: Identity, NoNoise: true,
		CFOHz: cfoHz, SampleRate: 20e6, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	rx, err := c.Apply(constBurst(1, 1000))
	if err != nil {
		t.Fatal(err)
	}
	// Phase advance per sample must be 2π·cfo/fs.
	want := 2 * math.Pi * cfoHz / 20e6
	for i := 10; i < 20; i++ {
		got := cmplx.Phase(rx[0][i+1] * cmplx.Conj(rx[0][i]))
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("phase step %g, want %g", got, want)
		}
	}
}

func TestIQImbalanceCreatesImage(t *testing.T) {
	// A pure tone through IQ imbalance grows an image at −f.
	c, err := New(Config{NumTX: 1, NumRX: 1, Model: Identity, NoNoise: true,
		IQGainDB: 1, IQPhaseDeg: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	n := 256
	tx := make([][]complex128, 1)
	tx[0] = make([]complex128, n)
	const k = 10.0
	for i := range tx[0] {
		tx[0][i] = cmplx.Exp(complex(0, 2*math.Pi*k*float64(i)/float64(n)))
	}
	rx, err := c.Apply(tx)
	if err != nil {
		t.Fatal(err)
	}
	fft := dsp.MustFFT(n)
	spec := make([]complex128, n)
	fft.Forward(spec, rx[0][:n])
	tone := cmplx.Abs(spec[int(k)])
	image := cmplx.Abs(spec[n-int(k)])
	if image < 1e-6 {
		t.Error("no IQ image generated")
	}
	if image >= tone {
		t.Error("image should be weaker than the tone")
	}
	// Image rejection for 1 dB / 3° should be roughly 20-35 dB down.
	irr := 20 * math.Log10(tone/image)
	if irr < 15 || irr > 40 {
		t.Errorf("image rejection %g dB outside plausible range", irr)
	}
}

func TestPhaseNoiseDecorrelates(t *testing.T) {
	c, err := New(Config{NumTX: 1, NumRX: 1, Model: Identity, NoNoise: true,
		PhaseNoiseHz: 5000, SampleRate: 20e6, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	n := 100000
	rx, err := c.Apply(constBurst(1, n))
	if err != nil {
		t.Fatal(err)
	}
	// Phase variance grows with lag for a Wiener process.
	varAtLag := func(lag int) float64 {
		var acc float64
		count := 0
		for i := 0; i+lag < n; i += lag {
			d := cmplx.Phase(rx[0][i+lag] * cmplx.Conj(rx[0][i]))
			acc += d * d
			count++
		}
		return acc / float64(count)
	}
	v100, v1000 := varAtLag(100), varAtLag(1000)
	if v1000 <= v100 {
		t.Errorf("phase variance did not grow with lag: %g vs %g", v100, v1000)
	}
}

func TestClockOffsetShiftsSamples(t *testing.T) {
	c, err := New(Config{NumTX: 1, NumRX: 1, Model: Identity, NoNoise: true,
		ClockPPM: 100, SampleRate: 20e6, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	// A ramp input reveals resampling: output[i] ≈ input(i·(1+1e-4)).
	n := 20000
	tx := [][]complex128{make([]complex128, n)}
	for i := range tx[0] {
		tx[0][i] = complex(float64(i), 0)
	}
	rx, err := c.Apply(tx)
	if err != nil {
		t.Fatal(err)
	}
	i := 10000
	want := float64(i) * (1 + 100e-6)
	if math.Abs(real(rx[0][i])-want) > 0.51 {
		t.Errorf("resampled ramp at %d = %g, want ≈ %g", i, real(rx[0][i]), want)
	}
}

func TestDCOffsetAndTimingOffset(t *testing.T) {
	c, err := New(Config{NumTX: 1, NumRX: 1, Model: Identity, NoNoise: true,
		DCOffset: complex(0.1, -0.05), TimingOffset: 37, TrailingSilence: 11, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	rx, err := c.Apply(constBurst(1, 100))
	if err != nil {
		t.Fatal(err)
	}
	if len(rx[0]) != 37+100+11 {
		t.Fatalf("output length %d", len(rx[0]))
	}
	if cmplx.Abs(rx[0][0]-complex(0.1, -0.05)) > 1e-12 {
		t.Errorf("lead sample %v, want pure DC", rx[0][0])
	}
	if cmplx.Abs(rx[0][50]-(1+complex(0.1, -0.05))) > 1e-12 {
		t.Errorf("burst sample %v", rx[0][50])
	}
}

func TestExtraRXAntennasSilentOnIdentity(t *testing.T) {
	c, _ := New(Config{NumTX: 1, NumRX: 2, Model: Identity, NoNoise: true, Seed: 11})
	rx, err := c.Apply(constBurst(1, 10))
	if err != nil {
		t.Fatal(err)
	}
	if dsp.Power(rx[1]) != 0 {
		t.Error("second antenna should be silent for identity 1x2")
	}
}

func BenchmarkApplyTGnD2x2(b *testing.B) {
	c, _ := New(Config{NumTX: 2, NumRX: 2, Model: TGnD, SNRdB: 20, Seed: 12})
	tx := constBurst(2, 4000)
	b.ReportAllocs()
	b.SetBytes(int64(len(tx[0]) * 16))
	for i := 0; i < b.N; i++ {
		if _, err := c.Apply(tx); err != nil {
			b.Fatal(err)
		}
	}
}

func TestDopplerValidation(t *testing.T) {
	if _, err := New(Config{NumTX: 1, NumRX: 1, Model: FlatRayleigh, DopplerHz: 100}); err == nil {
		t.Error("Doppler without SampleRate should fail")
	}
	if _, err := New(Config{NumTX: 1, NumRX: 1, Model: Identity, DopplerHz: 100, SampleRate: 20e6}); err == nil {
		t.Error("Doppler on identity model should fail")
	}
	if _, err := New(Config{NumTX: 1, NumRX: 1, Model: FlatRayleigh, DopplerHz: -1, SampleRate: 20e6}); err == nil {
		t.Error("negative Doppler should fail")
	}
}

func TestDopplerDecorrelatesWithinBurst(t *testing.T) {
	// A constant input through a Doppler channel shows an output whose
	// early and late segments decorrelate; without Doppler they are equal.
	mk := func(dopplerHz float64) []complex128 {
		c, err := New(Config{NumTX: 1, NumRX: 1, Model: FlatRayleigh, NoNoise: true,
			DopplerHz: dopplerHz, SampleRate: 20e6, Seed: 33})
		if err != nil {
			t.Fatal(err)
		}
		rx, err := c.Apply(constBurst(1, 8000))
		if err != nil {
			t.Fatal(err)
		}
		return rx[0]
	}
	static := mk(0)
	if static[10] != static[7000] {
		t.Error("static channel varied within the burst")
	}
	moving := mk(2000)
	d := moving[10] - moving[7000]
	if math.Hypot(real(d), imag(d)) < 1e-3 {
		t.Error("2 kHz Doppler left the channel constant over 8000 samples")
	}
}

func TestDopplerPreservesMeanPower(t *testing.T) {
	c, err := New(Config{NumTX: 1, NumRX: 1, Model: FlatRayleigh, NoNoise: true,
		DopplerHz: 1000, SampleRate: 20e6, Seed: 34})
	if err != nil {
		t.Fatal(err)
	}
	var acc float64
	const trials = 200
	for i := 0; i < trials; i++ {
		rx, err := c.Apply(constBurst(1, 4000))
		if err != nil {
			t.Fatal(err)
		}
		acc += dsp.Power(rx[0][:4000])
	}
	acc /= trials
	if math.Abs(acc-1) > 0.15 {
		t.Errorf("mean faded power %g, want ≈ 1 under Doppler", acc)
	}
}
