package main

import (
	"math/rand"

	"repro/internal/mac"
)

// mix derives an independent seed for one input stream of a run
// (splitmix64 finaliser), so adding a stream never shifts another.
func mix(seed int64, stream uint64) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*(stream+1)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return int64(z ^ z>>31)
}

// draw is one generated PHY input: the MAC payload handed to the
// transmitter, at which MCS, and the channel realisation it crosses.
type draw struct {
	MCS      int
	PSDULen  int // MAC frame length on air, header and FCS included
	Payload  []byte
	ChanSeed int64
}

// drawer deals (MCS, PSDU length) pairs from a balanced deck that is
// reshuffled each time it runs out, so every run carries the same mix in a
// seed-dependent order. Payload bytes and channel seeds come from the same
// seeded source; the program under test sees only what the drawer makes.
type drawer struct {
	rng    *rand.Rand
	combos [][2]int
	deck   []int
}

func newDrawer(seed int64, mcs, sizes []int) *drawer {
	d := &drawer{rng: rand.New(rand.NewSource(seed))}
	for _, m := range mcs {
		for _, s := range sizes {
			d.combos = append(d.combos, [2]int{m, s})
		}
	}
	return d
}

func (d *drawer) next() draw {
	if len(d.deck) == 0 {
		d.deck = d.rng.Perm(len(d.combos))
	}
	c := d.combos[d.deck[0]]
	d.deck = d.deck[1:]
	payload := make([]byte, c[1]-mac.Overhead())
	d.rng.Read(payload)
	return draw{MCS: c[0], PSDULen: c[1], Payload: payload, ChanSeed: d.rng.Int63()}
}

// payloads returns n seeded random byte strings of the given size.
func payloads(seed int64, n, size int) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]byte, n)
	for i := range out {
		out[i] = make([]byte, size)
		rng.Read(out[i])
	}
	return out
}
