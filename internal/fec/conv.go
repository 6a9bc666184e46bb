// Package fec implements the forward-error-correction pipeline the paper
// concatenates into its packet construction: the 802.11 rate-1/2
// constraint-length-7 convolutional code (generators 133/171 octal),
// puncturing to rates 2/3, 3/4 and 5/6, hard- and soft-decision Viterbi
// decoding, and the per-spatial-stream BCC interleaver of 802.11n.
package fec

import "fmt"

const (
	// ConstraintLength is K for the 802.11 BCC.
	ConstraintLength = 7
	numStates        = 1 << (ConstraintLength - 1) // 64
	// Generator polynomials, octal 133 and 171 (IEEE 802.11-2012 §18.3.5.6).
	genA = 0o133
	genB = 0o171
)

// Rate identifies a coding rate of the punctured BCC.
type Rate int

// Supported coding rates.
const (
	Rate1_2 Rate = iota
	Rate2_3
	Rate3_4
	Rate5_6
)

func (r Rate) String() string {
	switch r {
	case Rate1_2:
		return "1/2"
	case Rate2_3:
		return "2/3"
	case Rate3_4:
		return "3/4"
	case Rate5_6:
		return "5/6"
	}
	return fmt.Sprintf("Rate(%d)", int(r))
}

// Fraction returns the numerator and denominator of the rate.
func (r Rate) Fraction() (num, den int) {
	switch r {
	case Rate1_2:
		return 1, 2
	case Rate2_3:
		return 2, 3
	case Rate3_4:
		return 3, 4
	case Rate5_6:
		return 5, 6
	default:
		panic(fmt.Sprintf("fec: unknown rate %d", int(r)))
	}
}

// puncturePattern returns the keep-mask over the mother-code output, as
// (A-branch mask, B-branch mask) per input-bit period (IEEE 802.11-2012
// §18.3.5.6 figures; the 5/6 pattern is from §20.3.11.6).
func (r Rate) puncturePattern() (a, b []bool) {
	switch r {
	case Rate1_2:
		return []bool{true}, []bool{true}
	case Rate2_3:
		return []bool{true, true}, []bool{true, false}
	case Rate3_4:
		return []bool{true, true, false}, []bool{true, false, true}
	case Rate5_6:
		return []bool{true, true, false, true, false}, []bool{true, false, true, false, true}
	default:
		panic(fmt.Sprintf("fec: unknown rate %d", int(r)))
	}
}

// parity64 returns the parity of the set bits of x.
func parity64(x uint32) byte {
	x ^= x >> 16
	x ^= x >> 8
	x ^= x >> 4
	x ^= x >> 2
	x ^= x >> 1
	return byte(x & 1)
}

// outputs[state][input] packs the two coded bits (A in bit 0, B in bit 1)
// produced when `input` is shifted into `state`.
var outputs [numStates][2]byte

// nextState[state][input] is the successor register state.
var nextState [numStates][2]int

func init() {
	for s := 0; s < numStates; s++ {
		for in := 0; in < 2; in++ {
			// Register holds the K-1 previous bits; the full window is the
			// input bit followed by the state (input = most recent).
			window := uint32(in)<<(ConstraintLength-1) | uint32(s)
			a := parity64(window & genA)
			b := parity64(window & genB)
			outputs[s][in] = a | b<<1
			nextState[s][in] = int(window >> 1)
		}
	}
}

// Encode convolutionally encodes data bits (one bit per byte) with the
// rate-1/2 mother code and punctures to the requested rate. The encoder
// starts in the all-zero state; callers append 6 tail zero bits to the data
// if they need the trellis terminated (the PHY's SERVICE+tail framing does
// this).
//
// The returned slice contains the surviving coded bits in transmission
// order (A then B within each period, punctured positions skipped).
func Encode(data []byte, rate Rate) []byte {
	pa, pb := rate.puncturePattern()
	period := len(pa)
	out := make([]byte, 0, codedLen(len(data), rate))
	state := 0
	for i, bit := range data {
		in := int(bit & 1)
		o := outputs[state][in]
		p := i % period
		if pa[p] {
			out = append(out, o&1)
		}
		if pb[p] {
			out = append(out, (o>>1)&1)
		}
		state = nextState[state][in]
	}
	return out
}

// codedLen returns the number of coded bits produced by encoding n data bits
// at the given rate. n must be a multiple of the puncture period for the
// count to be exact at punctured rates; the PHY padding guarantees this.
func codedLen(n int, rate Rate) int {
	pa, pb := rate.puncturePattern()
	period := len(pa)
	full := n / period
	kept := 0
	for i := 0; i < period; i++ {
		if pa[i] {
			kept++
		}
		if pb[i] {
			kept++
		}
	}
	total := full * kept
	for i := 0; i < n%period; i++ {
		if pa[i] {
			total++
		}
		if pb[i] {
			total++
		}
	}
	return total
}
