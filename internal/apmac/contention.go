package apmac

import (
	"fmt"
	"math/rand"
	"sort"
)

// Slotted contention. The uplink is divided into contention rounds of CW
// slots; each station with pending traffic draws one slot uniformly from
// its current window. A slot with exactly one contender carries its frame;
// a slot two or more stations picked is a collision, and every collider
// doubles its window (binary-exponential backoff) up to the AP-granted
// maximum. A successful station resets to the minimum window. The draw is
// seeded per station, so a fixed seed replays the exact contention history
// — the property the E25 soak's determinism check rides on.

// Contention-window bounds granted at association, as exponents of two.
const (
	// DefaultCWMinExp: the initial window is 2^4 = 16 slots.
	DefaultCWMinExp = 4
	// DefaultCWMaxExp: backoff saturates at 2^10 = 1024 slots.
	DefaultCWMaxExp = 10
)

// Backoff is one station's contention state. Not safe for concurrent use.
type Backoff struct {
	rng       *rand.Rand
	cwMin, cw int
	cwMax     int
}

// NewBackoff returns contention state drawing from rng (required: the seam
// that keeps contention deterministic under test) with the given window
// exponents.
func NewBackoff(rng *rand.Rand, cwMinExp, cwMaxExp uint8) (*Backoff, error) {
	if rng == nil {
		return nil, fmt.Errorf("apmac: backoff requires a seeded rand source")
	}
	if cwMinExp > cwMaxExp || cwMaxExp > 16 {
		return nil, fmt.Errorf("apmac: contention window exponents [%d, %d] invalid", cwMinExp, cwMaxExp)
	}
	min := 1 << cwMinExp
	return &Backoff{rng: rng, cwMin: min, cw: min, cwMax: 1 << cwMaxExp}, nil
}

// Draw picks this round's slot: uniform over the current window.
func (b *Backoff) Draw() int { return b.rng.Intn(b.cw) }

// Collision doubles the window (saturating at the granted maximum).
func (b *Backoff) Collision() {
	if b.cw*2 <= b.cwMax {
		b.cw *= 2
	}
}

// Success resets the window to the minimum.
func (b *Backoff) Success() {
	b.cw = b.cwMin
}

// Arbitrate resolves one contention round: picks maps station → drawn slot.
// Stations alone in their slot win; stations sharing a slot collide. Both
// result slices are sorted by station ID, so a fixed input yields a
// bit-identical outcome on any iteration order.
func Arbitrate(picks map[uint16]int) (winners, collided []uint16) {
	bySlot := make(map[int][]uint16, len(picks))
	for st, slot := range picks {
		bySlot[slot] = append(bySlot[slot], st)
	}
	for _, stations := range bySlot {
		if len(stations) == 1 {
			winners = append(winners, stations[0])
			continue
		}
		collided = append(collided, stations...)
	}
	sort.Slice(winners, func(i, j int) bool { return winners[i] < winners[j] })
	sort.Slice(collided, func(i, j int) bool { return collided[i] < collided[j] })
	return winners, collided
}
