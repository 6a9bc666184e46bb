package mimo

import (
	"fmt"

	"repro/internal/cmatrix"
)

// Steering is the transmit spatial mapping between space-time streams and
// transmit chains: per FFT bin, an N_TX×N_SS matrix Q multiplying the
// stream-domain frequency symbols. Direct mapping (the identity embedding)
// is the nil *Steering; a precoding access point builds one from
// mumimo-derived weights so the receiver's HT-LTF estimate becomes the
// effective channel H·Q and detection proceeds unchanged.
type Steering struct {
	ntx, nss int
	q        []*cmatrix.Matrix // per FFT bin; nil bins fall back to direct mapping
}

// NewSteering returns an all-direct steering for ntx chains carrying nss
// streams over nbins FFT bins (nss ≤ ntx ≤ 4).
func NewSteering(ntx, nss, nbins int) (*Steering, error) {
	if nss < 1 || ntx < nss || ntx > 4 {
		return nil, fmt.Errorf("mimo: steering %d chains × %d streams invalid", ntx, nss)
	}
	if nbins < 1 {
		return nil, fmt.Errorf("mimo: steering needs ≥ 1 bin, got %d", nbins)
	}
	return &Steering{ntx: ntx, nss: nss, q: make([]*cmatrix.Matrix, nbins)}, nil
}

// FlatSteering returns a frequency-flat steering applying q (N_TX×N_SS) on
// every one of nbins bins.
//
//mimonet:testonly-ok planned caller: the E25 real-sample check drives per-station receivers through a precoded transmitter
func FlatSteering(q *cmatrix.Matrix, nbins int) (*Steering, error) {
	s, err := NewSteering(q.Rows, q.Cols, nbins)
	if err != nil {
		return nil, err
	}
	for b := range s.q {
		s.q[b] = q
	}
	return s, nil
}

// NTX returns the transmit chain count.
func (s *Steering) NTX() int { return s.ntx }

// NSS returns the spatial stream count.
func (s *Steering) NSS() int { return s.nss }

// Bins returns the FFT bin count the steering spans.
func (s *Steering) Bins() int { return len(s.q) }

// SetBin installs q (N_TX×N_SS) on one FFT bin.
//
//mimonet:testonly-ok planned caller: the E25 real-sample check installs per-tone precoders
func (s *Steering) SetBin(bin int, q *cmatrix.Matrix) error {
	if bin < 0 || bin >= len(s.q) {
		return fmt.Errorf("mimo: steering bin %d outside [0, %d)", bin, len(s.q))
	}
	if q != nil && (q.Rows != s.ntx || q.Cols != s.nss) {
		return fmt.Errorf("mimo: steering bin %d shape %dx%d, want %dx%d", bin, q.Rows, q.Cols, s.ntx, s.nss)
	}
	s.q[bin] = q
	return nil
}

// Mix maps one bin's stream-domain symbols into chain-domain symbols:
// chains[c] = Σ_s Q[c][s]·streams[s]. A bin with no installed matrix maps
// directly (stream s → chain s, upper chains silent).
func (s *Steering) Mix(bin int, streams, chains []complex128) error {
	if len(streams) != s.nss || len(chains) != s.ntx {
		return fmt.Errorf("mimo: mix %d streams into %d chains, steering is %dx%d",
			len(streams), len(chains), s.ntx, s.nss)
	}
	if bin < 0 || bin >= len(s.q) {
		return fmt.Errorf("mimo: steering bin %d outside [0, %d)", bin, len(s.q))
	}
	q := s.q[bin]
	if q == nil {
		for c := range chains {
			if c < len(streams) {
				chains[c] = streams[c]
			} else {
				chains[c] = 0
			}
		}
		return nil
	}
	for c := 0; c < s.ntx; c++ {
		var acc complex128
		for st := 0; st < s.nss; st++ {
			acc += q.At(c, st) * streams[st]
		}
		chains[c] = acc
	}
	return nil
}
