// Package ratectl implements SNR-driven link adaptation on top of the
// transceiver's fine-grained SNR estimation — the network-level use the
// paper builds MIMONet for ("evaluate the channel conditions"). A Selector
// maps the receiver's per-packet SNR estimate to the fastest MCS expected
// to decode, with hysteresis so the rate does not flap on estimation noise.
package ratectl

import (
	"fmt"

	"repro/internal/phy"
)

// Threshold pairs an MCS with the minimum SNR (dB) at which it sustains a
// target PER. The default table is calibrated from experiment E5's 10% PER
// points over TGn-B plus the single-stream equivalents.
type Threshold struct {
	MCS      int
	MinSNRdB float64
}

// DefaultThresholds returns a conservative two-stream-capable ladder
// (interleaving 1- and 2-stream MCS by required SNR).
func DefaultThresholds() []Threshold {
	return []Threshold{
		{MCS: 0, MinSNRdB: 2},   // BPSK 1/2, 6.5 Mb/s
		{MCS: 8, MinSNRdB: 7},   // 2ss BPSK 1/2, 13 Mb/s
		{MCS: 9, MinSNRdB: 12},  // 2ss QPSK 1/2, 26 Mb/s
		{MCS: 10, MinSNRdB: 16}, // 2ss QPSK 3/4, 39 Mb/s
		{MCS: 11, MinSNRdB: 19}, // 2ss 16QAM 1/2, 52 Mb/s
		{MCS: 12, MinSNRdB: 24}, // 2ss 16QAM 3/4, 78 Mb/s
		{MCS: 13, MinSNRdB: 29}, // 2ss 64QAM 2/3, 104 Mb/s
		{MCS: 15, MinSNRdB: 34}, // 2ss 64QAM 5/6, 130 Mb/s
	}
}

// Selector picks an MCS from SNR reports with hysteresis.
// Not safe for concurrent use.
type Selector struct {
	ladder []Threshold
	// HysteresisDB is subtracted from the current rung's threshold when
	// deciding whether to step down, so a rate is only abandoned once the
	// SNR estimate falls clearly below what selected it.
	HysteresisDB float64
	current      int // index into ladder
}

// NewSelector validates the ladder (ascending thresholds, valid MCS) and
// returns a selector starting at the lowest rung.
func NewSelector(ladder []Threshold, hysteresisDB float64) (*Selector, error) {
	if len(ladder) == 0 {
		return nil, fmt.Errorf("ratectl: empty threshold ladder")
	}
	if hysteresisDB < 0 {
		return nil, fmt.Errorf("ratectl: negative hysteresis")
	}
	prev := ladder[0].MinSNRdB - 1
	prevRate := -1.0
	for i, th := range ladder {
		m, err := phy.Lookup(th.MCS)
		if err != nil {
			return nil, fmt.Errorf("ratectl: rung %d: %w", i, err)
		}
		if th.MinSNRdB <= prev && i > 0 {
			return nil, fmt.Errorf("ratectl: thresholds must strictly ascend (rung %d)", i)
		}
		if m.DataRateMbps() <= prevRate {
			return nil, fmt.Errorf("ratectl: data rates must strictly ascend (rung %d)", i)
		}
		prev = th.MinSNRdB
		prevRate = m.DataRateMbps()
	}
	return &Selector{ladder: append([]Threshold(nil), ladder...), HysteresisDB: hysteresisDB}, nil
}

// Current returns the currently selected MCS.
func (s *Selector) Current() int { return s.ladder[s.current].MCS }

// Observe feeds one SNR estimate (dB) and returns the MCS to use next.
// Rate-up requires the estimate to clear the higher rung's threshold;
// rate-down happens when it falls below the current rung's threshold minus
// the hysteresis margin.
func (s *Selector) Observe(snrDB float64) int {
	// Climb while the next rung's threshold is met.
	for s.current+1 < len(s.ladder) && snrDB >= s.ladder[s.current+1].MinSNRdB {
		s.current++
	}
	// Descend while below the current rung (with hysteresis).
	for s.current > 0 && snrDB < s.ladder[s.current].MinSNRdB-s.HysteresisDB {
		s.current--
	}
	return s.Current()
}

// OnLoss reports a failed packet; the selector steps down one rung
// immediately (loss is stronger evidence than a noisy SNR estimate).
func (s *Selector) OnLoss() int {
	if s.current > 0 {
		s.current--
	}
	return s.Current()
}
