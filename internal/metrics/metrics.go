// Package metrics provides the measurement machinery the paper reports
// with: bit error rate and packet error rate counters with Wilson-score
// confidence intervals and error-vector-magnitude accumulation.
package metrics

import (
	"fmt"
	"math"

	"repro/internal/bitutil"
)

// BER counts bit errors.
type BER struct {
	Errors, Total int64
}

// AddBits compares transmitted and received bit slices (one bit per byte).
func (b *BER) AddBits(tx, rx []byte) error {
	n, err := bitutil.CountDiffer(tx, rx)
	if err != nil {
		return err
	}
	b.Errors += int64(n)
	b.Total += int64(len(tx))
	return nil
}

// Add counts errors directly.
func (b *BER) Add(errors, total int64) {
	b.Errors += errors
	b.Total += total
}

// Rate returns the measured error rate (0 when nothing was counted).
func (b *BER) Rate() float64 {
	if b.Total == 0 {
		return 0
	}
	return float64(b.Errors) / float64(b.Total)
}

// Confidence returns the Wilson-score interval at the given z (1.96 ≈ 95%).
//
//mimonet:testonly-ok planned caller: the BER-prediction oracle checks measured points against this interval
func (b *BER) Confidence(z float64) (lo, hi float64) {
	return wilson(float64(b.Errors), float64(b.Total), z)
}

func (b *BER) String() string {
	return fmt.Sprintf("BER %.3g (%d/%d)", b.Rate(), b.Errors, b.Total)
}

// PER counts packet errors.
type PER struct {
	Errors, Total int64
}

// Add records one packet outcome.
func (p *PER) Add(ok bool) {
	p.Total++
	if !ok {
		p.Errors++
	}
}

// Rate returns the packet error rate.
func (p *PER) Rate() float64 {
	if p.Total == 0 {
		return 0
	}
	return float64(p.Errors) / float64(p.Total)
}

// Confidence returns the Wilson-score interval at the given z.
//
//mimonet:testonly-ok planned caller: the BER-prediction oracle and oracle-licensed table changes check PER points against this interval
func (p *PER) Confidence(z float64) (lo, hi float64) {
	return wilson(float64(p.Errors), float64(p.Total), z)
}

func (p *PER) String() string {
	return fmt.Sprintf("PER %.3g (%d/%d)", p.Rate(), p.Errors, p.Total)
}

// wilson computes the Wilson score interval for k successes in n trials.
func wilson(k, n, z float64) (lo, hi float64) {
	if n == 0 {
		return 0, 1
	}
	p := k / n
	den := 1 + z*z/n
	center := (p + z*z/(2*n)) / den
	half := z / den * math.Sqrt(p*(1-p)/n+z*z/(4*n*n))
	lo, hi = center-half, center+half
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}

// EVM accumulates error vector magnitude across symbols.
type EVM struct {
	errPow, refPow float64
	n              int64
}

// Add records one symbol against its reference.
func (e *EVM) Add(rx, ref complex128) {
	d := rx - ref
	e.errPow += real(d)*real(d) + imag(d)*imag(d)
	e.refPow += real(ref)*real(ref) + imag(ref)*imag(ref)
	e.n++
}

// RMS returns the accumulated RMS EVM (linear; ×100 for percent).
func (e *EVM) RMS() float64 {
	if e.refPow == 0 {
		return 0
	}
	return math.Sqrt(e.errPow / e.refPow)
}

// SNRdB returns the implied SNR in dB.
func (e *EVM) SNRdB() float64 {
	r := e.RMS()
	if r == 0 {
		return math.Inf(1)
	}
	return -20 * math.Log10(r)
}

// Count returns the number of symbols accumulated.
func (e *EVM) Count() int64 { return e.n }
