package fec

import (
	"fmt"
	"math"
)

// Viterbi is a reusable maximum-likelihood decoder for the 802.11 BCC. It
// accepts soft inputs as log-likelihood ratios with the convention
// llr > 0 ⇒ the coded bit is more likely 0; the magnitude expresses
// confidence. Hard-decision decoding is the special case llr ∈ {+1, −1}.
//
// A Viterbi value is not safe for concurrent use; create one per goroutine.
// The decoder reuses its metric arrays across calls and grows its traceback
// matrix on demand, so steady-state decoding does not allocate.
type Viterbi struct {
	metric     []float64
	nextMetric []float64
	// survivors[t] packs, one bit per state, the low bit of the best
	// predecessor of each state at trellis step t: bit ns is the survivor
	// decision for state ns. Together with ns it reconstructs the
	// predecessor: with nextState = in<<5 | s>>1, the predecessor is
	// s = (ns&31)<<1 | survivor, and the step-t input bit is ns>>5.
	// One uint64 per step keeps the traceback matrix at 8 bytes/step — a
	// 1500-byte packet's 12k-step traceback stays under 100 KiB and cache
	// resident, where a byte-per-state layout would stream ~770 KiB.
	survivors []uint64
}

//go:generate go run ./internal/acsgen

// NewViterbi returns a decoder.
func NewViterbi() *Viterbi {
	return &Viterbi{
		metric:     make([]float64, numStates),
		nextMetric: make([]float64, numStates),
	}
}

// Depuncture expands coded values received at the given rate back to the
// mother-code stream of 2·dataBits values, inserting zeros (erasures) at
// punctured positions. dataBits is the number of trellis steps the decoder
// will run. It allocates the output; hot paths should hold a buffer and use
// DepunctureInto.
func Depuncture(llr []float64, dataBits int, rate Rate) ([]float64, error) {
	return DepunctureInto(nil, llr, dataBits, rate)
}

// DepunctureInto is Depuncture writing into dst, which is grown only when
// its capacity is short and returned resliced to 2·dataBits. Punctured
// positions are explicitly zeroed, so dst may hold stale values. llr and
// dst must not overlap.
func DepunctureInto(dst, llr []float64, dataBits int, rate Rate) ([]float64, error) {
	pa, pb := rate.puncturePattern()
	period := len(pa)
	want := codedLen(dataBits, rate)
	if len(llr) != want {
		return nil, fmt.Errorf("fec: depuncture got %d values, want %d for %d data bits at rate %v",
			len(llr), want, dataBits, rate)
	}
	if cap(dst) < 2*dataBits {
		dst = make([]float64, 2*dataBits)
	}
	dst = dst[:2*dataBits]
	src := 0
	for i := 0; i < dataBits; i++ {
		p := i % period
		if pa[p] {
			dst[2*i] = llr[src]
			src++
		} else {
			dst[2*i] = 0
		}
		if pb[p] {
			dst[2*i+1] = llr[src]
			src++
		} else {
			dst[2*i+1] = 0
		}
	}
	return dst, nil
}

// DecodeSoft runs Viterbi decoding over a depunctured mother-code LLR stream
// (length must be even; 2 values per trellis step) and returns the decoded
// data bits, one per trellis step. If terminated is true the trellis is
// assumed driven back to the all-zero state by tail bits and traceback
// starts from state 0; otherwise traceback starts from the best-metric end
// state. It allocates the output; hot paths should hold a buffer and use
// DecodeSoftInto.
func (v *Viterbi) DecodeSoft(llr []float64, terminated bool) ([]byte, error) {
	return v.DecodeSoftInto(nil, llr, terminated)
}

// DecodeSoftInto is DecodeSoft writing the decoded bits into dst, which is
// grown only when its capacity is short and returned resliced to one byte
// per trellis step.
//
// The add-compare-select step runs over 32 radix-2 butterflies rather than
// 128 state×input edges. Both generators (133, 171 octal) include the top
// and bottom taps of the shift register, so flipping either the input bit
// or the oldest state bit complements both coded bits: the four edges of
// butterfly j (states 2j, 2j+1 → j, j+32) carry only two distinct output
// pairs, o and o^3, and share one ±la/±lb addend pattern. acsSweep
// (acs_gen.go, generated from the taps) writes the 32 butterflies out
// straight-line with those signs as constants. The per-edge arithmetic —
// (m ± la) ± lb with strictly-greater updates in ascending predecessor
// order — is identical to the straightforward 128-edge sweep, so decoded
// outputs are bit-identical; only the schedule changed.
//
//mimonet:hot
func (v *Viterbi) DecodeSoftInto(dst []byte, llr []float64, terminated bool) ([]byte, error) {
	if len(llr)%2 != 0 {
		return nil, fmt.Errorf("fec: soft input length %d is odd", len(llr))
	}
	steps := len(llr) / 2
	if steps == 0 {
		return nil, nil
	}
	v.ensureTraceback(steps)

	const unreachable = math.MaxFloat64 / 4
	for s := range v.metric {
		v.metric[s] = -unreachable
	}
	v.metric[0] = 0 // encoder starts in state 0

	// Fixed-size array views let the compiler drop bounds checks in the ACS
	// kernel; both slices are always exactly numStates long.
	//
	// In each butterfly the correlation addend is +llr for an expected 0
	// and −llr for an expected 1; erasures (llr 0) contribute nothing
	// either way. Writing m − l for m + (−l) rounds identically in IEEE
	// 754. The compare-select is branchless: survivor branches are decided
	// by channel noise, so a conditional mispredicts roughly half the time.
	// max picks the winning metric without new arithmetic, and the survivor
	// bit is the sign of the exact difference — 1 iff the odd predecessor
	// strictly wins, the same strictly-greater tie-break as the branching
	// form (metrics are sums that can never be −0, so a−c = +0 on ties).
	cur := (*[numStates]float64)(v.metric)
	if acsSweep(cur, (*[numStates]float64)(v.nextMetric), llr, v.survivors) != cur {
		v.metric, v.nextMetric = v.nextMetric, v.metric // odd step count
	}

	state := 0
	if !terminated {
		best := math.Inf(-1)
		for s, m := range v.metric {
			if m > best {
				best, state = m, s
			}
		}
	}
	bits := dst
	if cap(bits) < steps {
		bits = make([]byte, steps)
	}
	bits = bits[:steps]
	for t := steps - 1; t >= 0; t-- {
		bits[t] = uint8(state >> (ConstraintLength - 2)) // input bit sits at the register top
		state = ((state << 1) & (numStates - 1)) | int((v.survivors[t]>>state)&1)
	}
	return bits, nil
}

// Reserve pre-sizes the decoder's metric and traceback storage for a decode
// of the given number of trellis steps, so the subsequent DecodeSoftInto
// performs no allocation. The PHY calls this with the SIG-declared packet
// length as soon as the header is decoded, before the data symbols stream in.
func (v *Viterbi) Reserve(steps int) {
	if steps > 0 {
		v.ensureTraceback(steps)
	}
}

func (v *Viterbi) ensureTraceback(steps int) {
	if cap(v.survivors) < steps {
		v.survivors = make([]uint64, steps)
	}
	v.survivors = v.survivors[:steps]
}
