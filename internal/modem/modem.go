// Package modem implements the 802.11 subcarrier modulation mappings
// (IEEE 802.11-2012 §18.3.5.8): Gray-coded BPSK, QPSK, 16-QAM and 64-QAM
// with the standard normalization factors, plus hard slicing and max-log-MAP
// LLR demapping for soft-decision Viterbi decoding.
package modem

import (
	"fmt"
	"math"
)

// Scheme identifies a constellation.
type Scheme int

// Supported constellations.
const (
	BPSK Scheme = iota
	QPSK
	QAM16
	QAM64
)

func (s Scheme) String() string {
	switch s {
	case BPSK:
		return "BPSK"
	case QPSK:
		return "QPSK"
	case QAM16:
		return "16-QAM"
	case QAM64:
		return "64-QAM"
	}
	return fmt.Sprintf("Scheme(%d)", int(s))
}

// BitsPerSymbol returns N_BPSC for the scheme.
func (s Scheme) BitsPerSymbol() int {
	switch s {
	case BPSK:
		return 1
	case QPSK:
		return 2
	case QAM16:
		return 4
	case QAM64:
		return 6
	default:
		panic(fmt.Sprintf("modem: unknown scheme %d", int(s)))
	}
}

// Norm returns the K_MOD amplitude normalization so that the average symbol
// energy is 1.
func (s Scheme) Norm() float64 {
	switch s {
	case BPSK:
		return 1
	case QPSK:
		return 1 / math.Sqrt2
	case QAM16:
		return 1 / math.Sqrt(10)
	case QAM64:
		return 1 / math.Sqrt(42)
	default:
		panic(fmt.Sprintf("modem: unknown scheme %d", int(s)))
	}
}

// pamLevel maps Gray-coded bits to the PAM level per the 802.11 tables.
// The per-axis bit groups (b0 b1 ... listed first-transmitted first) map:
//
//	1 bit:  0→−1, 1→+1
//	2 bits: 00→−3, 01→−1, 11→+1, 10→+3
//	3 bits: 000→−7, 001→−5, 011→−3, 010→−1, 110→+1, 111→+3, 101→+5, 100→+7
//
// Index is the little-endian packed bit pattern (b0 in bit 0), so e.g. for
// 2 bits the table rows 00→−3, 01→−1, 11→+1, 10→+3 land at indices 0, 2, 3, 1.
var grayPAM = [4][]float64{
	1: {-1, 1},
	2: {-3, 3, -1, 1},
	3: {-7, 7, -1, 1, -5, 5, -3, 3},
}

// pamBits is the inverse: pamBits[nbits][levelIndex] = Gray bits packed
// little-endian, where levelIndex = (level + max) / 2.
var pamBits [4][]int

func init() {
	for nbits := 1; nbits <= 3; nbits++ {
		levels := grayPAM[nbits]
		inv := make([]int, len(levels))
		for bits, lvl := range levels {
			idx := (int(lvl) + len(levels) - 1) / 2
			inv[idx] = bits
		}
		pamBits[nbits] = inv
	}
}

// Mapper modulates bits onto constellation points. It is stateless and safe
// for concurrent use.
type Mapper struct {
	scheme Scheme
	nbpsc  int
	norm   float64
	axis   int // bits per I (and Q) axis; 0 for BPSK's Q
}

// NewMapper returns a mapper for the scheme.
func NewMapper(s Scheme) *Mapper {
	m := &Mapper{scheme: s, nbpsc: s.BitsPerSymbol(), norm: s.Norm()}
	m.axis = m.nbpsc / 2
	return m
}

// Map converts bits (one per byte, length a multiple of BitsPerSymbol) to
// symbols. The first bit of each group modulates I, per the standard's
// table ordering.
func (m *Mapper) Map(bits []byte) ([]complex128, error) {
	return m.MapTo(nil, bits)
}

// MapTo is Map writing into dst, which is grown only when its capacity is
// short and returned resliced to the symbol count, for callers that map
// many blocks with a reused buffer.
func (m *Mapper) MapTo(dst []complex128, bits []byte) ([]complex128, error) {
	if len(bits)%m.nbpsc != 0 {
		return nil, fmt.Errorf("modem: %d bits is not a multiple of %d", len(bits), m.nbpsc)
	}
	n := len(bits) / m.nbpsc
	if cap(dst) < n {
		dst = make([]complex128, n)
	}
	dst = dst[:n]
	for i := range dst {
		dst[i] = m.MapOne(bits[i*m.nbpsc : (i+1)*m.nbpsc])
	}
	return dst, nil
}

// MapOne converts exactly BitsPerSymbol bits to one symbol.
func (m *Mapper) MapOne(bits []byte) complex128 {
	if m.scheme == BPSK {
		if bits[0]&1 == 0 {
			return complex(-1, 0)
		}
		return complex(1, 0)
	}
	iIdx, qIdx := 0, 0
	for k := 0; k < m.axis; k++ {
		iIdx |= int(bits[k]&1) << uint(k)
		qIdx |= int(bits[m.axis+k]&1) << uint(k)
	}
	lv := grayPAM[m.axis]
	return complex(lv[iIdx]*m.norm, lv[qIdx]*m.norm)
}

// Points returns every constellation point indexed by its bit pattern
// (little-endian packed), for ML detection.
func (m *Mapper) Points() []complex128 {
	n := 1 << uint(m.nbpsc)
	pts := make([]complex128, n)
	bits := make([]byte, m.nbpsc)
	for v := 0; v < n; v++ {
		for k := range bits {
			bits[k] = byte((v >> uint(k)) & 1)
		}
		pts[v] = m.MapOne(bits)
	}
	return pts
}

// Demapper recovers bits from noisy symbols. It is stateless and safe for
// concurrent use.
type Demapper struct {
	scheme Scheme
	nbpsc  int
	norm   float64
	axis   int
}

// NewDemapper returns a demapper for the scheme.
func NewDemapper(s Scheme) *Demapper {
	d := &Demapper{scheme: s, nbpsc: s.BitsPerSymbol(), norm: s.Norm()}
	d.axis = d.nbpsc / 2
	return d
}

// BitsPerSymbol returns N_BPSC for the demapper's constellation.
func (d *Demapper) BitsPerSymbol() int { return d.nbpsc }

// HardOne slices one symbol to the nearest constellation point's bits,
// appended to dst.
func (d *Demapper) HardOne(dst []byte, sym complex128) []byte {
	if d.scheme == BPSK {
		if real(sym) >= 0 {
			return append(dst, 1)
		}
		return append(dst, 0)
	}
	iBits := sliceAxis(real(sym)/d.norm, d.axis)
	qBits := sliceAxis(imag(sym)/d.norm, d.axis)
	for k := 0; k < d.axis; k++ {
		dst = append(dst, byte((iBits>>uint(k))&1))
	}
	for k := 0; k < d.axis; k++ {
		dst = append(dst, byte((qBits>>uint(k))&1))
	}
	return dst
}

// Hard slices symbols to bits.
func (d *Demapper) Hard(symbols []complex128) []byte {
	out := make([]byte, 0, len(symbols)*d.nbpsc)
	for _, s := range symbols {
		out = d.HardOne(out, s)
	}
	return out
}

func sliceAxis(v float64, axisBits int) int {
	// Clamp to nearest odd level in [−(2^axisBits−1), +...].
	maxLvl := float64(int(1)<<uint(axisBits)) - 1
	l := math.Round((v + maxLvl) / 2)
	if l < 0 {
		l = 0
	}
	if l > maxLvl {
		l = maxLvl
	}
	return pamBits[axisBits][int(l)]
}

// SoftOne appends max-log-MAP LLRs for one symbol to dst. noiseVar is the
// per-symbol complex noise variance; csi is an optional channel state
// weight (|h|² for a one-tap equalized carrier, or the post-detection SINR
// weight from a MIMO detector) that scales confidence. LLR > 0 means bit 0.
func (d *Demapper) SoftOne(dst []float64, sym complex128, noiseVar, csi float64) []float64 {
	n := len(dst)
	if cap(dst) < n+d.nbpsc {
		// Grow through append so the usual doubling amortizes; the zeroed
		// tail is immediately overwritten by SoftTo, and once capacity is
		// reached (steady state) this branch never runs again.
		dst = append(dst, make([]float64, d.nbpsc)...)
	} else {
		dst = dst[:n+d.nbpsc]
	}
	d.SoftTo(dst[n:], sym, noiseVar, csi)
	return dst
}

// SoftTo computes max-log-MAP LLRs for one symbol into dst[:BitsPerSymbol].
// It is the write-in-place core of SoftOne — both produce identical values —
// exposed so the batched receive path can land soft bits directly at their
// final positions without an append-and-copy round trip.
//
//mimonet:hot
func (d *Demapper) SoftTo(dst []float64, sym complex128, noiseVar, csi float64) {
	if noiseVar <= 0 {
		noiseVar = 1e-12
	}
	w := csi / noiseVar
	if d.scheme == BPSK {
		dst[0] = -4 * real(sym) * w
		return
	}
	softAxis(dst[:d.axis], real(sym)/d.norm, d.axis, w*d.norm*d.norm)
	softAxis(dst[d.axis:2*d.axis], imag(sym)/d.norm, d.axis, w*d.norm*d.norm)
}

// softAxis computes exact max-log LLRs for one PAM axis into dst[:axisBits]
// by searching the (at most 8) levels. v is the received level in
// unnormalized PAM units; w scales squared distances to LLR units.
func softAxis(dst []float64, v float64, axisBits int, w float64) {
	levels := grayPAM[axisBits]
	for bit := 0; bit < axisBits; bit++ {
		d0 := math.Inf(1) // best squared distance with this bit = 0
		d1 := math.Inf(1)
		for pattern, lvl := range levels {
			dist := (v - lvl) * (v - lvl)
			if (pattern>>uint(bit))&1 == 0 {
				if dist < d0 {
					d0 = dist
				}
			} else if dist < d1 {
				d1 = dist
			}
		}
		dst[bit] = (d1 - d0) * w
	}
}
