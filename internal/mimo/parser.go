// Package mimo implements the spatial-multiplexing machinery of the paper's
// transceiver: the 802.11n stream parser that splits one coded bit stream
// across spatial streams, and the per-subcarrier MIMO detectors (zero
// forcing, MMSE and maximum likelihood) that separate the streams again at
// the receiver.
package mimo

import "fmt"

// StreamParser distributes coded bits round-robin across N_SS spatial
// streams in blocks of s = max(1, N_BPSCS/2) bits
// (IEEE 802.11-2012 §20.3.11.7), and reassembles their soft values.
type StreamParser struct {
	nss   int
	block int
}

// NewStreamParser returns a parser for nss streams with nbpscs coded bits
// per subcarrier per stream.
func NewStreamParser(nss, nbpscs int) (*StreamParser, error) {
	if nss < 1 || nss > 4 {
		return nil, fmt.Errorf("mimo: N_SS %d out of range [1,4]", nss)
	}
	switch nbpscs {
	case 1, 2, 4, 6:
	default:
		return nil, fmt.Errorf("mimo: N_BPSCS %d not one of 1, 2, 4, 6", nbpscs)
	}
	block := nbpscs / 2
	if block < 1 {
		block = 1
	}
	return &StreamParser{nss: nss, block: block}, nil
}

// BlockBits returns s·N_SS, the number of input bits consumed per round.
func (p *StreamParser) BlockBits() int { return p.block * p.nss }

// Parse splits coded bits into per-stream slices. len(bits) must be a
// multiple of BlockBits so every stream receives the same count (the PHY's
// padding guarantees this).
func (p *StreamParser) Parse(bits []byte) ([][]byte, error) {
	if len(bits)%p.BlockBits() != 0 {
		return nil, fmt.Errorf("mimo: %d bits is not a multiple of %d", len(bits), p.BlockBits())
	}
	per := len(bits) / p.nss
	out := make([][]byte, p.nss)
	for i := range out {
		out[i] = make([]byte, 0, per)
	}
	for off := 0; off < len(bits); off += p.BlockBits() {
		for ss := 0; ss < p.nss; ss++ {
			start := off + ss*p.block
			out[ss] = append(out[ss], bits[start:start+p.block]...)
		}
	}
	return out, nil
}

// MergeLLR reassembles per-stream soft values, for the soft-decision
// receive path.
func (p *StreamParser) MergeLLR(streams [][]float64) ([]float64, error) {
	if len(streams) != p.nss {
		return nil, fmt.Errorf("mimo: %d streams, want %d", len(streams), p.nss)
	}
	per := len(streams[0])
	for i, s := range streams {
		if len(s) != per {
			return nil, fmt.Errorf("mimo: stream %d has %d values, stream 0 has %d", i, len(s), per)
		}
	}
	if per%p.block != 0 {
		return nil, fmt.Errorf("mimo: stream length %d not a multiple of block %d", per, p.block)
	}
	out := make([]float64, 0, per*p.nss)
	for off := 0; off < per; off += p.block {
		for ss := 0; ss < p.nss; ss++ {
			out = append(out, streams[ss][off:off+p.block]...)
		}
	}
	return out, nil
}
