package phy

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/channel"
	"repro/internal/ofdm"
)

// runTracking sends one long packet over a Doppler channel and reports
// whether it decoded, with channel tracking on or off.
func runTracking(t *testing.T, dopplerHz float64, track bool, seed int64) bool {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	tx, err := NewTransmitter(TxConfig{MCS: 9, ScramblerSeed: byte(seed) | 1})
	if err != nil {
		t.Fatal(err)
	}
	psdu := randPSDU(r, 3000)
	burst, err := tx.Transmit(psdu)
	if err != nil {
		t.Fatal(err)
	}
	c, err := channel.New(channel.Config{NumTX: 2, NumRX: 2, Model: channel.FlatRayleigh,
		SNRdB: 28, Seed: seed, DopplerHz: dopplerHz, SampleRate: ofdm.SampleRate,
		TimingOffset: 250, TrailingSilence: 90})
	if err != nil {
		t.Fatal(err)
	}
	rxs, err := c.Apply(burst)
	if err != nil {
		t.Fatal(err)
	}
	rx, err := NewReceiver(RxConfig{NumAntennas: 2, Detector: "mmse", TrackChannel: track})
	if err != nil {
		t.Fatal(err)
	}
	res, err := rx.Receive(rxs)
	if err != nil {
		return false
	}
	return bytes.Equal(res.PSDU, psdu)
}

func TestTrackingHarmlessOnStaticChannel(t *testing.T) {
	ok := 0
	for seed := int64(0); seed < 6; seed++ {
		if runTracking(t, 0, true, 600+seed) {
			ok++
		}
	}
	if ok < 6 {
		t.Errorf("tracking on a static channel decoded only %d/6", ok)
	}
}

func TestTrackingHelpsUnderDoppler(t *testing.T) {
	// At a Doppler where the channel rotates substantially over the
	// ~120-symbol packet, tracking should decode packets the static
	// estimate loses.
	const doppler = 900.0 // Hz
	okTracked, okStatic := 0, 0
	const trials = 12
	for seed := int64(0); seed < trials; seed++ {
		if runTracking(t, doppler, true, 700+seed) {
			okTracked++
		}
		if runTracking(t, doppler, false, 700+seed) {
			okStatic++
		}
	}
	t.Logf("Doppler %g Hz: tracked %d/%d, static %d/%d", doppler, okTracked, trials, okStatic, trials)
	if okTracked <= okStatic {
		t.Errorf("tracking (%d) did not beat static estimation (%d)", okTracked, okStatic)
	}
}
