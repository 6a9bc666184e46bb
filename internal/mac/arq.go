package mac

import (
	"fmt"
	"math/rand"
	"sort"
	"time"
)

// Selective-repeat ARQ in the style of 802.11n Block Ack: the sender
// aggregates up to a window of MPDUs per round (an A-MPDU), the receiver
// responds with a compressed bitmap acknowledging the subframes whose FCS
// verified, and only the missing ones are retransmitted. Combined with
// package-level Aggregate/Deaggregate this is the network-level payoff of
// per-subframe FCS.

// BlockAck is a compressed acknowledgement: sequence numbers in
// [Start, Start+64) are acknowledged by bits of the bitmap.
type BlockAck struct {
	Start  uint16
	Bitmap uint64
}

// Acked reports whether seq is acknowledged.
func (b BlockAck) Acked(seq uint16) bool {
	off := int(seq-b.Start) & 0x0FFF
	if off >= 64 {
		return false
	}
	return b.Bitmap&(1<<uint(off)) != 0
}

// AckFrom builds a BlockAck from deaggregated results, anchored at start.
func AckFrom(start uint16, results []DeaggregateResult) BlockAck {
	ack := BlockAck{Start: start}
	for _, res := range results {
		if res.Err != nil || res.Frame == nil {
			continue
		}
		off := int(res.Frame.Seq-start) & 0x0FFF
		if off < 64 {
			ack.Bitmap |= 1 << uint(off)
		}
	}
	return ack
}

// ARQSender manages a selective-repeat transmit window over payloads.
// Not safe for concurrent use.
type ARQSender struct {
	window  int
	nextSeq uint16
	// pending maps sequence → payload awaiting acknowledgement.
	pending map[uint16][]byte
	// retries tracks transmissions per sequence for the give-up policy.
	retries    map[uint16]int
	MaxRetries int
	// BackoffBase and BackoffMax shape RetryDelay's exponential backoff:
	// the delay doubles per consecutive all-loss round, capped at
	// BackoffMax. Defaults 1ms and 64ms.
	BackoffBase, BackoffMax time.Duration
	// JitterFrac spreads each non-zero RetryDelay uniformly over
	// [d·(1-f), d·(1+f)] using the seeded source from SetJitterSource, so
	// concurrent sessions sharing a congested link do not synchronize
	// their retransmission rounds. Zero (or no source) keeps the
	// deterministic schedule.
	JitterFrac float64
	// jitterRng is the explicitly seeded stream behind JitterFrac; the
	// montecarlo seeded-rand discipline, never the global source.
	jitterRng *rand.Rand
	// Delivered and Dropped count terminal payload outcomes.
	Delivered, Dropped int
	// Backoffs counts rounds in which pending frames went entirely
	// unacknowledged (the link looked dead).
	Backoffs int
	// failRounds is the current consecutive all-loss round streak.
	failRounds int
}

// NewARQSender returns a sender with a window of up to `window` outstanding
// MPDUs per round (≤ 64, the Block Ack bitmap size).
func NewARQSender(window int) (*ARQSender, error) {
	if window < 1 || window > 64 {
		return nil, fmt.Errorf("mac: ARQ window %d outside [1, 64]", window)
	}
	return &ARQSender{
		window:      window,
		pending:     make(map[uint16][]byte),
		retries:     make(map[uint16]int),
		MaxRetries:  7,
		BackoffBase: time.Millisecond,
		BackoffMax:  64 * time.Millisecond,
	}, nil
}

// Queue accepts a payload for reliable delivery and returns its assigned
// sequence number.
func (s *ARQSender) Queue(payload []byte) uint16 {
	seq := s.nextSeq
	s.nextSeq = (s.nextSeq + 1) & 0x0FFF
	s.pending[seq] = payload
	return seq
}

// Outstanding returns the number of unacknowledged payloads.
func (s *ARQSender) Outstanding() int { return len(s.pending) }

// Round returns the frames to transmit this round: the oldest pending
// sequences up to the window, in order. It also records the attempt against
// each frame's retry budget, dropping frames that exhausted it.
func (s *ARQSender) Round() []*Frame {
	seqs := make([]int, 0, len(s.pending))
	for seq := range s.pending {
		seqs = append(seqs, int(seq))
	}
	// Order by age: sequence distance from the oldest modulo 4096. With
	// windows ≤ 64 and in-order Queue calls, plain numeric order with
	// wraparound handling suffices.
	sort.Ints(seqs)
	frames := make([]*Frame, 0, s.window)
	for _, si := range seqs {
		if len(frames) == s.window {
			break
		}
		seq := uint16(si)
		if s.retries[seq] >= s.MaxRetries {
			delete(s.pending, seq)
			delete(s.retries, seq)
			s.Dropped++
			continue
		}
		s.retries[seq]++
		frames = append(frames, &Frame{Seq: seq, Payload: s.pending[seq]})
	}
	return frames
}

// Apply consumes a BlockAck, releasing acknowledged payloads. It also feeds
// the backoff state: a round where frames were pending and none were
// acknowledged extends the consecutive-failure streak that RetryDelay turns
// into an exponential wait; any acknowledgement resets it.
func (s *ARQSender) Apply(ack BlockAck) {
	hadPending := len(s.pending) > 0
	acked := 0
	for seq := range s.pending {
		if ack.Acked(seq) {
			delete(s.pending, seq)
			delete(s.retries, seq)
			s.Delivered++
			acked++
		}
	}
	if !hadPending {
		return
	}
	if acked == 0 {
		s.failRounds++
		s.Backoffs++
	} else {
		s.failRounds = 0
	}
}

// SetJitterSource installs the seeded random stream JitterFrac draws from.
// Nil disables jitter. Sessions derive their stream from the campaign seed
// (montecarlo.ShardSeed) so chaos runs replay bit-identically.
func (s *ARQSender) SetJitterSource(rng *rand.Rand) { s.jitterRng = rng }

// RetryDelay returns how long the driver should wait before the next Round:
// zero while the link is delivering, then BackoffBase doubling per
// consecutive all-loss round up to BackoffMax, spread by ±JitterFrac when a
// jitter source is installed. The exponential keeps a retransmit storm from
// hammering a link that is down; the jitter keeps concurrent sessions from
// hammering it in lockstep.
func (s *ARQSender) RetryDelay() time.Duration {
	if s.failRounds == 0 {
		return 0
	}
	base, max := s.BackoffBase, s.BackoffMax
	if base <= 0 {
		base = time.Millisecond
	}
	if max < base {
		max = base
	}
	d := base
	for i := 1; i < s.failRounds; i++ {
		if d >= max/2 {
			d = max
			break
		}
		d *= 2
	}
	if d > max {
		d = max
	}
	if s.jitterRng != nil && s.JitterFrac > 0 {
		f := s.JitterFrac
		if f > 1 {
			f = 1
		}
		// Uniform in [d·(1-f), d·(1+f)], floored at 1ns so a backoff round
		// never degenerates into a busy loop.
		d += time.Duration((2*s.jitterRng.Float64() - 1) * f * float64(d))
		if d < 1 {
			d = 1
		}
	}
	return d
}
