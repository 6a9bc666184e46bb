package fec

import "fmt"

// Interleaver implements the 802.11 block interleavers as precomputed
// permutation tables. Two variants are supported:
//
//   - Legacy (clause 18): one OFDM symbol of N_CBPS = 48·N_BPSC bits, two
//     permutations with 16 columns.
//   - HT 20 MHz (clause 20, BCC): one symbol per spatial stream of
//     N_CBPSS = 52·N_BPSCS bits, two permutations with 13 columns plus the
//     third frequency-rotation permutation indexed by the spatial stream.
//
// The table is computed once at construction. The receiver, which works on
// soft decisions, applies the inverse permutation to float values with
// DeinterleaveLLR.
type Interleaver struct {
	perm []int // perm[k] = output position of input bit k
	inv  []int
}

// NewLegacyInterleaver returns the clause-18 interleaver for a modulation of
// nbpsc coded bits per subcarrier (1, 2, 4 or 6).
func NewLegacyInterleaver(nbpsc int) (*Interleaver, error) {
	if err := checkNBPSC(nbpsc); err != nil {
		return nil, err
	}
	ncbps := 48 * nbpsc
	s := maxInt(1, nbpsc/2)
	perm := make([]int, ncbps)
	for k := 0; k < ncbps; k++ {
		i := (ncbps/16)*(k%16) + k/16
		j := s*(i/s) + (i+ncbps-16*i/ncbps)%s
		perm[k] = j
	}
	return newInterleaverFromPerm(perm)
}

// NewHTInterleaver returns the clause-20 20 MHz BCC interleaver for spatial
// stream iss (0-based) of nss total streams, with nbpscs coded bits per
// subcarrier per stream.
func NewHTInterleaver(nbpscs, nss, iss int) (*Interleaver, error) {
	if err := checkNBPSC(nbpscs); err != nil {
		return nil, err
	}
	if nss < 1 || nss > 4 {
		return nil, fmt.Errorf("fec: N_SS %d out of range [1,4]", nss)
	}
	if iss < 0 || iss >= nss {
		return nil, fmt.Errorf("fec: stream index %d out of range [0,%d)", iss, nss)
	}
	const (
		ncol = 13
		nrot = 11
	)
	ncbpss := 52 * nbpscs
	nrow := 4 * nbpscs
	s := maxInt(1, nbpscs/2)
	perm := make([]int, ncbpss)
	for k := 0; k < ncbpss; k++ {
		i := nrow*(k%ncol) + k/ncol
		j := s*(i/s) + (i+ncbpss-ncol*i/ncbpss)%s
		r := j
		if nss > 1 {
			// Third permutation (frequency rotation), IEEE 802.11-2012
			// eq. 20-21 with 1-based stream index.
			jss := iss + 1
			rot := ((jss-1)*2)%3 + 3*((jss-1)/3)
			r = (j - rot*nrot*nbpscs + 4*ncbpss) % ncbpss
		}
		perm[k] = r
	}
	return newInterleaverFromPerm(perm)
}

func newInterleaverFromPerm(perm []int) (*Interleaver, error) {
	inv := make([]int, len(perm))
	seen := make([]bool, len(perm))
	for k, p := range perm {
		if p < 0 || p >= len(perm) || seen[p] {
			return nil, fmt.Errorf("fec: internal error: permutation not bijective at %d→%d", k, p)
		}
		seen[p] = true
		inv[p] = k
	}
	return &Interleaver{perm: perm, inv: inv}, nil
}

func checkNBPSC(n int) error {
	switch n {
	case 1, 2, 4, 6:
		return nil
	}
	return fmt.Errorf("fec: N_BPSC %d not one of 1, 2, 4, 6", n)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Interleave permutes one block of bits into dst. dst and src must both have
// the block length (one OFDM symbol of one spatial stream) and must not
// alias.
func (il *Interleaver) Interleave(dst, src []byte) {
	il.checkLen(len(dst), len(src))
	for k, p := range il.perm {
		dst[p] = src[k]
	}
}

// DeinterleaveLLR applies the inverse permutation to soft values.
func (il *Interleaver) DeinterleaveLLR(dst, src []float64) {
	il.checkLen(len(dst), len(src))
	for k, p := range il.inv {
		dst[p] = src[k]
	}
}

func (il *Interleaver) checkLen(d, s int) {
	if d != len(il.perm) || s != len(il.perm) {
		panic(fmt.Sprintf("fec: interleaver block is %d bits, got dst %d src %d", len(il.perm), d, s))
	}
}
