package fec

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

// deinterleave is the test oracle for Interleave: the inverse permutation
// applied straight from the forward table, independent of the inverse table
// DeinterleaveLLR walks.
func deinterleave(il *Interleaver, dst, src []byte) {
	for k, p := range il.perm {
		dst[k] = src[p]
	}
}

func TestInterleaverRoundTripLegacy(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	for _, nbpsc := range []int{1, 2, 4, 6} {
		il, err := NewLegacyInterleaver(nbpsc)
		if err != nil {
			t.Fatal(err)
		}
		if len(il.perm) != 48*nbpsc {
			t.Errorf("nbpsc=%d: block size %d", nbpsc, len(il.perm))
		}
		src := randBits(r, len(il.perm))
		mid := make([]byte, len(il.perm))
		out := make([]byte, len(il.perm))
		il.Interleave(mid, src)
		deinterleave(il, out, mid)
		if !bytes.Equal(out, src) {
			t.Errorf("nbpsc=%d: round trip failed", nbpsc)
		}
	}
}

func TestInterleaverRoundTripHT(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for _, nbpscs := range []int{1, 2, 4, 6} {
		for nss := 1; nss <= 4; nss++ {
			for iss := 0; iss < nss; iss++ {
				il, err := NewHTInterleaver(nbpscs, nss, iss)
				if err != nil {
					t.Fatal(err)
				}
				if len(il.perm) != 52*nbpscs {
					t.Errorf("block size %d", len(il.perm))
				}
				src := randBits(r, len(il.perm))
				mid := make([]byte, len(il.perm))
				out := make([]byte, len(il.perm))
				il.Interleave(mid, src)
				deinterleave(il, out, mid)
				if !bytes.Equal(out, src) {
					t.Errorf("nbpscs=%d nss=%d iss=%d: round trip failed", nbpscs, nss, iss)
				}
			}
		}
	}
}

func TestInterleaverIsActuallyPermuting(t *testing.T) {
	il, err := NewLegacyInterleaver(2)
	if err != nil {
		t.Fatal(err)
	}
	src := make([]byte, len(il.perm))
	for i := range src {
		src[i] = byte(i % 2)
	}
	dst := make([]byte, len(il.perm))
	il.Interleave(dst, src)
	if bytes.Equal(dst, src) {
		t.Error("interleaver left a nontrivial block unchanged")
	}
}

func TestHTStreamRotationDiffers(t *testing.T) {
	// For N_SS = 2, the two streams must use different permutations — that
	// is the entire point of the third permutation.
	il0, _ := NewHTInterleaver(2, 2, 0)
	il1, _ := NewHTInterleaver(2, 2, 1)
	src := make([]byte, len(il0.perm))
	src[0] = 1
	a := make([]byte, len(src))
	b := make([]byte, len(src))
	il0.Interleave(a, src)
	il1.Interleave(b, src)
	if bytes.Equal(a, b) {
		t.Error("streams 0 and 1 produced identical interleaving")
	}
}

func TestLegacyInterleaverAdjacentBitsSpread(t *testing.T) {
	// Adjacent coded bits must land on nonadjacent subcarriers — the
	// design property of the first permutation. For N_BPSC=1 the bit index
	// equals the subcarrier index.
	il, _ := NewLegacyInterleaver(1)
	src := make([]byte, 48)
	dst := make([]byte, 48)
	src[0], src[1] = 1, 1
	il.Interleave(dst, src)
	var positions []int
	for i, b := range dst {
		if b == 1 {
			positions = append(positions, i)
		}
	}
	if len(positions) != 2 {
		t.Fatalf("expected 2 set bits, got %v", positions)
	}
	gap := positions[1] - positions[0]
	if gap < 2 {
		t.Errorf("adjacent coded bits map to adjacent carriers (gap %d)", gap)
	}
}

func TestInterleaverKnownVectorLegacyBPSK(t *testing.T) {
	// For N_BPSC=1 (s=1), j == i and i = 3·(k mod 16) + k/16.
	il, _ := NewLegacyInterleaver(1)
	for _, c := range []struct{ k, want int }{
		{0, 0}, {1, 3}, {15, 45}, {16, 1}, {47, 47},
	} {
		src := make([]byte, 48)
		dst := make([]byte, 48)
		src[c.k] = 1
		il.Interleave(dst, src)
		if dst[c.want] != 1 {
			got := -1
			for i, b := range dst {
				if b == 1 {
					got = i
				}
			}
			t.Errorf("bit %d mapped to %d, want %d", c.k, got, c.want)
		}
	}
}

func TestInterleaverValidation(t *testing.T) {
	if _, err := NewLegacyInterleaver(3); err == nil {
		t.Error("N_BPSC=3 should be rejected")
	}
	if _, err := NewHTInterleaver(2, 5, 0); err == nil {
		t.Error("N_SS=5 should be rejected")
	}
	if _, err := NewHTInterleaver(2, 2, 2); err == nil {
		t.Error("iss ≥ nss should be rejected")
	}
}

func TestDeinterleaveLLRMatchesBits(t *testing.T) {
	il, _ := NewHTInterleaver(4, 2, 1)
	r := rand.New(rand.NewSource(12))
	prop := func(seed int64) bool {
		_ = seed
		bits := randBits(r, len(il.perm))
		llr := make([]float64, len(bits))
		inter := make([]byte, len(bits))
		il.Interleave(inter, bits)
		for i, b := range inter {
			if b == 0 {
				llr[i] = 1
			} else {
				llr[i] = -1
			}
		}
		outBits := make([]byte, len(bits))
		outLLR := make([]float64, len(bits))
		deinterleave(il, outBits, inter)
		il.DeinterleaveLLR(outLLR, llr)
		for i := range outBits {
			hard := byte(0)
			if outLLR[i] < 0 {
				hard = 1
			}
			if hard != outBits[i] {
				return false
			}
		}
		return bytes.Equal(outBits, bits)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestInterleaverLengthPanics(t *testing.T) {
	il, _ := NewLegacyInterleaver(1)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on wrong block length")
		}
	}()
	il.Interleave(make([]byte, 10), make([]byte, 48))
}
