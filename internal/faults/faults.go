// Package faults is a deterministic, seed-driven fault-injection subsystem
// for chaos-testing the MIMO-OFDM pipeline. It provides sample-level
// interceptors (drop, duplication, burst erasures, gain glitches, timing
// jumps), datagram-level mangling for the UDP radio link (loss, truncation,
// corruption, reordering), SIG-field corruption at known PPDU offsets, and
// flowgraph wrapper blocks that inject scripted panics and stalls — all
// configured through named, reproducible Scenarios.
package faults

import (
	"math/rand"
	"sync"
	"sync/atomic"

	"repro/internal/phy"
	"repro/internal/radio"
)

// Counts tallies every fault the injector actually applied, so experiments
// can report injected-fault pressure next to decode outcomes. Safe for
// concurrent use.
type Counts struct {
	sampleDrops     atomic.Int64
	sampleDups      atomic.Int64
	erasures        atomic.Int64
	gainGlitches    atomic.Int64
	timingJumps     atomic.Int64
	sigCorruptions  atomic.Int64
	dgramsDropped   atomic.Int64
	dgramsTruncated atomic.Int64
	dgramsCorrupted atomic.Int64
	dgramsReordered atomic.Int64
}

// CountsSnapshot is a plain-value copy of a Counts.
type CountsSnapshot struct {
	SampleDrops, SampleDups, Erasures, GainGlitches, TimingJumps int64
	SIGCorruptions                                               int64
	DgramsDropped, DgramsTruncated, DgramsCorrupted              int64
	DgramsReordered                                              int64
}

// Total sums every injected fault.
func (s CountsSnapshot) Total() int64 {
	return s.SampleDrops + s.SampleDups + s.Erasures + s.GainGlitches +
		s.TimingJumps + s.SIGCorruptions + s.DgramsDropped +
		s.DgramsTruncated + s.DgramsCorrupted + s.DgramsReordered
}

// Snapshot returns a point-in-time copy.
func (c *Counts) Snapshot() CountsSnapshot {
	return CountsSnapshot{
		SampleDrops:     c.sampleDrops.Load(),
		SampleDups:      c.sampleDups.Load(),
		Erasures:        c.erasures.Load(),
		GainGlitches:    c.gainGlitches.Load(),
		TimingJumps:     c.timingJumps.Load(),
		SIGCorruptions:  c.sigCorruptions.Load(),
		DgramsDropped:   c.dgramsDropped.Load(),
		DgramsTruncated: c.dgramsTruncated.Load(),
		DgramsCorrupted: c.dgramsCorrupted.Load(),
		DgramsReordered: c.dgramsReordered.Load(),
	}
}

// Injector applies a Scenario's faults. All randomness comes from one seeded
// source, so a given (scenario, seed) pair injects the same fault sequence
// on every run. Methods are safe for concurrent use (one mutex guards the
// random source and the reorder buffer).
type Injector struct {
	mu     sync.Mutex
	rng    *rand.Rand
	sc     Scenario
	held   [][]byte // datagrams delayed by the reorder fault
	counts Counts
}

// NewInjector builds an injector for sc. A non-zero seed overrides the
// scenario's own; with both zero the seed defaults to 1.
func NewInjector(sc Scenario, seed int64) *Injector {
	if seed == 0 {
		seed = sc.Seed
	}
	if seed == 0 {
		seed = 1
	}
	sc = sc.withDefaults()
	return &Injector{rng: rand.New(rand.NewSource(seed)), sc: sc}
}

// Counts returns a snapshot of the faults injected so far.
func (inj *Injector) Counts() CountsSnapshot { return inj.counts.Snapshot() }

// roll must be called with mu held.
func (inj *Injector) roll(prob float64) bool {
	return prob > 0 && inj.rng.Float64() < prob
}

// ApplyBurst mutates one multi-antenna burst in place according to the
// scenario and returns it. Structural faults (drop, dup, timing jump) are
// applied at the same offsets on every stream so the streams stay aligned
// and equal-length, as they would through a shared radio front-end clock.
func (inj *Injector) ApplyBurst(burst [][]complex128) [][]complex128 {
	if len(burst) == 0 || len(burst[0]) == 0 {
		return burst
	}
	inj.mu.Lock()
	defer inj.mu.Unlock()
	n := len(burst[0])

	if inj.roll(inj.sc.CorruptSIG) {
		inj.corruptSIG(burst)
	}
	if inj.roll(inj.sc.BurstErasure) {
		ln := inj.sc.FaultLen
		if ln > n {
			ln = n
		}
		at := inj.rng.Intn(n - ln + 1)
		for _, s := range burst {
			for i := at; i < at+ln; i++ {
				s[i] = 0
			}
		}
		inj.counts.erasures.Add(1)
	}
	if inj.roll(inj.sc.GainGlitch) {
		ln := inj.sc.FaultLen
		if ln > n {
			ln = n
		}
		at := inj.rng.Intn(n - ln + 1)
		g := complex(inj.sc.GlitchGain, 0)
		for _, s := range burst {
			for i := at; i < at+ln; i++ {
				s[i] *= g
			}
		}
		inj.counts.gainGlitches.Add(1)
	}
	if inj.roll(inj.sc.SampleDrop) {
		at := inj.rng.Intn(n)
		for si, s := range burst {
			burst[si] = append(s[:at], s[at+1:]...)
		}
		n--
		inj.counts.sampleDrops.Add(1)
	}
	if n > 0 && inj.roll(inj.sc.SampleDup) {
		at := inj.rng.Intn(n)
		for si, s := range burst {
			s = append(s, 0)
			copy(s[at+1:], s[at:])
			burst[si] = s
		}
		n++
		inj.counts.sampleDups.Add(1)
	}
	if inj.roll(inj.sc.TimingJump) {
		j := 1 + inj.rng.Intn(inj.sc.MaxJump)
		if inj.rng.Intn(2) == 0 {
			// Clock ran fast: drop j samples from the front.
			if j > n {
				j = n
			}
			for si, s := range burst {
				burst[si] = s[j:]
			}
		} else {
			// Clock ran slow: j zero samples of dead air up front.
			for si, s := range burst {
				padded := make([]complex128, j+len(s))
				copy(padded[j:], s)
				burst[si] = padded
			}
		}
		inj.counts.timingJumps.Add(1)
	}
	return burst
}

// corruptSIG negates random samples across the L-SIG and HT-SIG symbols so
// the receiver's parity/CRC checks reject the headers with typed errors.
// Called with mu held.
func (inj *Injector) corruptSIG(burst [][]complex128) {
	lo, hi := phy.OffLSIG, phy.OffHTSTF
	if hi > len(burst[0]) {
		hi = len(burst[0])
	}
	if lo >= hi {
		return
	}
	for _, s := range burst {
		for i := lo; i < hi; i++ {
			if inj.rng.Intn(2) == 0 {
				s[i] = -s[i]
			}
		}
	}
	inj.counts.sigCorruptions.Add(1)
}

// MangleDatagram is a radio.UDPSender Intercept hook: it receives one
// encoded frame and returns the datagrams to actually transmit — possibly
// none (loss, or held back for reordering) or several (a held frame being
// released out of order). End-of-burst frames are never dropped or held,
// and any held frames are flushed before them, so bursts always terminate.
// The datagram may be mutated (truncation, byte corruption).
func (inj *Injector) MangleDatagram(dgram []byte) [][]byte {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	eob := false
	if h, err := radio.DecodeHeader(dgram); err == nil && h.Flags&radio.FlagEndOfBurst != 0 {
		eob = true
	}
	if !eob {
		if inj.roll(inj.sc.DgramLoss) {
			inj.counts.dgramsDropped.Add(1)
			return nil
		}
		if inj.roll(inj.sc.DgramReorder) {
			inj.held = append(inj.held, dgram)
			inj.counts.dgramsReordered.Add(1)
			return nil
		}
	}
	if inj.roll(inj.sc.DgramTrunc) && len(dgram) > 1 {
		dgram = dgram[:1+inj.rng.Intn(len(dgram)-1)]
		inj.counts.dgramsTruncated.Add(1)
	} else if inj.roll(inj.sc.DgramCorrupt) {
		flips := 1 + inj.rng.Intn(8)
		for i := 0; i < flips; i++ {
			dgram[inj.rng.Intn(len(dgram))] ^= byte(1 + inj.rng.Intn(255))
		}
		inj.counts.dgramsCorrupted.Add(1)
	}
	var out [][]byte
	if eob {
		// Held frames go first so the burst still terminates on this frame.
		out = append(out, inj.held...)
		inj.held = nil
		return append(out, dgram)
	}
	// Release this frame, then any held (older) frames — they arrive after
	// newer sequence numbers, i.e. out of order.
	out = append(out, dgram)
	out = append(out, inj.held...)
	inj.held = nil
	return out
}
