package bitutil

// Scrambler implements the 802.11 frame-synchronous data scrambler
// (IEEE 802.11-2012 §18.3.5.5): a 7-bit LFSR with generator x⁷+x⁴+1
// producing a length-127 sequence XORed onto the data bits. Descrambling is
// the identical operation, so the same type serves both directions.
//
// The paper's packet construction scrambles the PSDU before FEC encoding,
// exactly as the standard prescribes.
type Scrambler struct {
	state byte // 7 bits, nonzero
}

// NewScrambler returns a scrambler initialized to the given 7-bit seed.
// A zero seed would lock the LFSR, so it is replaced by the all-ones state
// the standard recommends for testing.
func NewScrambler(seed byte) *Scrambler {
	seed &= 0x7F
	if seed == 0 {
		seed = 0x7F
	}
	return &Scrambler{state: seed}
}

// NextBit advances the LFSR one step and returns the scrambling bit.
func (s *Scrambler) NextBit() byte {
	// Feedback = x7 xor x4 (bits 6 and 3 of the state register).
	fb := ((s.state >> 6) ^ (s.state >> 3)) & 1
	s.state = ((s.state << 1) | fb) & 0x7F
	return fb
}

// Scramble XORs the scrambling sequence onto bits in place and returns bits
// for convenience. Each element is treated as a single bit (only bit 0 is
// used).
func (s *Scrambler) Scramble(bits []byte) []byte {
	for i := range bits {
		bits[i] = (bits[i] & 1) ^ s.NextBit()
	}
	return bits
}

// Sequence returns the first n bits of the scrambling sequence without
// consuming scrambler state, for tests and for pilot-polarity generation
// (the pilot polarity PN in 802.11 is the same length-127 sequence seeded
// with all ones).
func (s *Scrambler) Sequence(n int) []byte {
	saved := s.state
	out := make([]byte, n)
	for i := range out {
		out[i] = s.NextBit()
	}
	s.state = saved
	return out
}
