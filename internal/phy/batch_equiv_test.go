package phy

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/channel"
	"repro/internal/mimo"
)

// runChain runs one TX→channel→RX cycle with the given receiver config and
// returns the result, the receive error, and a copy of the receiver's
// depunctured LLR stream (the exact Viterbi input) for bit-level comparison.
func runChain(t *testing.T, rxs [][]complex128, cfg RxConfig) (*RxResult, error, []float64) {
	t.Helper()
	cp := make([][]complex128, len(rxs))
	for a := range rxs {
		cp[a] = append([]complex128(nil), rxs[a]...)
	}
	rx, err := NewReceiver(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, rerr := rx.Receive(cp)
	return res, rerr, append([]float64(nil), rx.depBuf...)
}

// makeBurst builds one faded received burst for the MCS with nss+1 antennas.
func makeBurst(t *testing.T, mcsIdx, psduLen int, seed int64) ([][]complex128, []byte, int) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	tx, err := NewTransmitter(TxConfig{MCS: mcsIdx, ScramblerSeed: byte(seed) | 1})
	if err != nil {
		t.Fatal(err)
	}
	psdu := randPSDU(r, psduLen)
	burst, err := tx.Transmit(psdu)
	if err != nil {
		t.Fatal(err)
	}
	nrx := min(tx.NumChains()+1, 4)
	c, err := channel.New(channel.Config{Model: channel.FlatRayleigh, SNRdB: 45,
		Seed: 900 + seed, NumTX: tx.NumChains(), NumRX: nrx,
		TimingOffset: 250, TrailingSilence: 80})
	if err != nil {
		t.Fatal(err)
	}
	rxs, err := c.Apply(burst)
	if err != nil {
		t.Fatal(err)
	}
	return rxs, psdu, nrx
}

// TestBatchMatchesScalarAllMCS is the batching correctness property: for
// every MCS and every detector family (ML on each MCS whose joint
// constellation NewML accepts), the block-batched data path must
// produce the exact depunctured LLR stream — and therefore the exact decoded
// PSDU and CPE trace — of the symbol-at-a-time reference chain, at every
// worker count. Float comparison is ==, not a tolerance: the batch path
// reorders no arithmetic.
func TestBatchMatchesScalarAllMCS(t *testing.T) {
	workerCounts := []int{1, 4, runtime.NumCPU()}
	for mcsIdx := 0; mcsIdx <= 31; mcsIdx++ {
		dets := []string{"mmse", "sic"}
		mcs, err := Lookup(mcsIdx)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := mimo.NewML(mcs.Scheme, mcs.NSS); err == nil {
			dets = append(dets, "ml")
		}
		rxs, psdu, nrx := makeBurst(t, mcsIdx, 120, int64(mcsIdx))
		for _, det := range dets {
			t.Run(fmt.Sprintf("mcs%d/%s", mcsIdx, det), func(t *testing.T) {
				base := RxConfig{NumAntennas: nrx, Detector: det}

				ref := base
				ref.ScalarChain = true
				refRes, refErr, refDep := runChain(t, rxs, ref)
				if refErr != nil {
					t.Fatalf("scalar chain: %v", refErr)
				}
				if !bytes.Equal(refRes.PSDU, psdu) {
					// A harsh square-channel draw can defeat the highest
					// rates; equivalence (batch == scalar) still applies.
					t.Logf("scalar chain decoded a wrong PSDU (channel-limited); comparing chains anyway")
				}

				for _, w := range workerCounts {
					cfg := base
					cfg.Workers = w
					res, err, dep := runChain(t, rxs, cfg)
					if err != nil {
						t.Fatalf("workers=%d: %v", w, err)
					}
					if !bytes.Equal(res.PSDU, refRes.PSDU) {
						t.Errorf("workers=%d: PSDU differs from scalar chain", w)
					}
					if len(dep) != len(refDep) {
						t.Fatalf("workers=%d: dep length %d, scalar %d", w, len(dep), len(refDep))
					}
					for i := range dep {
						if dep[i] != refDep[i] {
							t.Fatalf("workers=%d: LLR %d differs: batch %g scalar %g", w, i, dep[i], refDep[i])
						}
					}
					if len(res.CPETrace) != len(refRes.CPETrace) {
						t.Fatalf("workers=%d: CPE trace length %d, scalar %d", w, len(res.CPETrace), len(refRes.CPETrace))
					}
					for i := range res.CPETrace {
						if res.CPETrace[i] != refRes.CPETrace[i] {
							t.Fatalf("workers=%d: CPE[%d] differs", w, i)
						}
					}
				}
			})
		}
	}
}
