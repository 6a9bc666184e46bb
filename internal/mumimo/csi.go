// Package mumimo is the multi-user downlink layer of the access point: it
// collects quantized sounding feedback from stations into a per-station CSI
// cache (staleness-evicted on the injectable clock seam), derives
// zero-forcing precoding weights over internal/cmatrix, and packs
// compatible stations into transmission groups by channel orthogonality and
// pending-queue depth. The paper's instrumentation "evaluates the channel
// conditions" for one link; this package is the layer that turns those
// per-link evaluations into multi-station scheduling decisions.
package mumimo

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/cmatrix"
	"repro/internal/sounding"
)

// DefaultMaxCSIAge is the staleness bound on cached feedback: channel
// estimates older than this are not trusted for precoding (the channel has
// decorrelated) and the station must be re-sounded.
const DefaultMaxCSIAge = 500 * time.Millisecond

// Entry is one station's cached channel state.
type Entry struct {
	// Station is the AP-assigned station ID the feedback came from.
	Station uint16
	// Tones holds the per-subcarrier downlink channel matrices (N_RX×N_TX),
	// as dequantized from the station's compressed feedback.
	Tones []*cmatrix.Matrix
	// Report is the sounding analysis of Tones at the feedback SNR: the
	// per-stream post-detection SNRs and stream recommendation the
	// scheduler ranks stations by.
	Report *sounding.Report
	// Updated is the cache clock's time the feedback arrived.
	Updated time.Time

	// mean caches the tone-averaged channel matrix, the representative the
	// scheduler's orthogonality metric uses.
	mean *cmatrix.Matrix
}

// Mean returns the tone-averaged channel matrix (nil entries and dead tones
// contribute zero). The result is shared; callers must not mutate it.
func (e *Entry) Mean() *cmatrix.Matrix { return e.mean }

// Cache holds the per-station CSI an access point precodes from. All
// methods are safe for concurrent use. Staleness is measured on the
// injectable clock seam, so tests drive eviction with a fake clock.
type Cache struct {
	clk    clock.Clock
	maxAge time.Duration

	mu      sync.Mutex
	entries map[uint16]*Entry
}

// NewCache returns a cache evicting entries older than maxAge (≤0 selects
// DefaultMaxCSIAge) against clk (nil selects the system clock).
func NewCache(clk clock.Clock, maxAge time.Duration) *Cache {
	if maxAge <= 0 {
		maxAge = DefaultMaxCSIAge
	}
	return &Cache{clk: clock.Or(clk), maxAge: maxAge, entries: make(map[uint16]*Entry)}
}

// UpdateFeedback decodes a station's quantized feedback (sounding.Quantize
// wire bytes) and caches the reconstruction, analyzed at the given linear
// SNR. Feedback whose every tone is dead is rejected: a zero channel cannot
// be precoded toward and must not displace an older usable estimate.
func (c *Cache) UpdateFeedback(station uint16, feedback []byte, snr float64) (*Entry, error) {
	tones, err := sounding.Dequantize(feedback)
	if err != nil {
		return nil, fmt.Errorf("mumimo: station %d feedback: %w", station, err)
	}
	return c.Update(station, tones, snr)
}

// Update caches per-subcarrier channel matrices for a station, analyzed at
// the given linear SNR.
func (c *Cache) Update(station uint16, tones []*cmatrix.Matrix, snr float64) (*Entry, error) {
	if station == 0 {
		return nil, fmt.Errorf("mumimo: station 0 is the unassociated sentinel")
	}
	rep, err := sounding.Analyze(tones, snr)
	if err != nil {
		return nil, fmt.Errorf("mumimo: station %d: %w", station, err)
	}
	if rep.DeadSubcarriers == len(tones) {
		return nil, fmt.Errorf("mumimo: station %d reported an all-dead channel", station)
	}
	e := &Entry{
		Station: station,
		Tones:   tones,
		Report:  rep,
		Updated: c.clk.Now(),
		mean:    meanMatrix(tones),
	}
	c.mu.Lock()
	c.entries[station] = e
	c.mu.Unlock()
	return e, nil
}

// Get returns the station's entry if it is fresh; a stale or absent entry
// reports ok=false (stale entries are left for Sweep to collect).
func (c *Cache) Get(station uint16) (*Entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[station]
	if !ok || c.clk.Since(e.Updated) > c.maxAge {
		return nil, false
	}
	return e, true
}

// Age returns how old the station's cached feedback is, fresh or not.
func (c *Cache) Age(station uint16) (time.Duration, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[station]
	if !ok {
		return 0, false
	}
	return c.clk.Since(e.Updated), true
}

// Remove drops a station's entry (association teardown).
func (c *Cache) Remove(station uint16) {
	c.mu.Lock()
	delete(c.entries, station)
	c.mu.Unlock()
}

// Sweep evicts every stale entry and returns how many were dropped.
func (c *Cache) Sweep() int { return len(c.SweepList()) }

// SweepList evicts every stale entry and returns the evicted station IDs,
// sorted — the AP keys its CSI-stale journal events off this list.
func (c *Cache) SweepList() []uint16 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []uint16
	for id, e := range c.entries {
		if c.clk.Since(e.Updated) > c.maxAge {
			delete(c.entries, id)
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// meanMatrix averages the live tones of a per-subcarrier channel estimate
// into one representative matrix.
func meanMatrix(tones []*cmatrix.Matrix) *cmatrix.Matrix {
	var acc *cmatrix.Matrix
	n := 0
	for _, t := range tones {
		if t == nil {
			continue
		}
		if acc == nil {
			acc = cmatrix.New(t.Rows, t.Cols)
		}
		for i := range t.Data {
			acc.Data[i] += t.Data[i]
		}
		n++
	}
	if acc == nil {
		return nil
	}
	acc.ScaleInPlace(complex(1/float64(n), 0))
	return acc
}
