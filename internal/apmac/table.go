package apmac

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/mac"
	"repro/internal/obs"
)

// Metric names and label keys (constant, per obshygiene). Per-station
// series are labeled by the 64-value bitmap slot, not the unbounded station
// ID, so a churning population cannot fork unbounded metric families.
const (
	metricStations      = "mimonet_ap_stations"
	metricAssocTotal    = "mimonet_ap_assoc_total"
	metricTeardownTotal = "mimonet_ap_teardown_total"
	metricStationPER    = "mimonet_ap_station_per"
	metricStationBytes  = "mimonet_ap_station_tx_bytes_total"
	metricCSIAge        = "mimonet_ap_station_csi_age_seconds"
	labelSlot           = "slot"
)

// ARQWindow is the per-station selective-repeat window the table hands each
// association.
const ARQWindow = 64

// Station is one associated station's MAC state.
type Station struct {
	// ID is the AP-assigned, non-zero station ID — the radio v4 demux key.
	ID uint16
	// Slot is the group-bitmap bit granted at association.
	Slot uint8
	// RXAntennas is the station's receive antenna count from its request.
	RXAntennas int
	// Nonce is the association request's dedupe key.
	Nonce uint64
	// Associated and LastSeen are table-clock times.
	Associated time.Time
	LastSeen   time.Time
	// ARQ is the station's downlink selective-repeat sender.
	ARQ *mac.ARQSender
}

// Table is the association lifecycle: it grants station IDs and bitmap
// slots, holds per-station ARQ state, and expires stations that fall
// silent. Safe for concurrent use.
type Table struct {
	clk clock.Clock

	mu       sync.Mutex
	nextID   uint16
	stations map[uint16]*Station
	byNonce  map[uint64]uint16
	slots    uint64 // bitmap of granted slots

	stationsGauge *obs.Gauge
	assocTotal    *obs.Counter
	teardownTotal *obs.Counter
	reg           *obs.Registry
}

// NewTable returns an empty association table on clk (nil selects the
// system clock).
func NewTable(clk clock.Clock) *Table {
	return &Table{
		clk:      clock.Or(clk),
		stations: make(map[uint16]*Station),
		byNonce:  make(map[uint64]uint16),
	}
}

// Instrument registers the AP's station metrics on reg. Call before the
// first association; a nil registry is a no-op (nil-safe instruments).
func (t *Table) Instrument(reg *obs.Registry) {
	t.reg = reg
	t.stationsGauge = reg.Gauge(metricStations, "currently associated stations")
	t.assocTotal = reg.Counter(metricAssocTotal, "association grants")
	t.teardownTotal = reg.Counter(metricTeardownTotal, "association teardowns (explicit or idle-expired)")
}

// slotLabel returns the bounded per-station label set for a bitmap slot.
func slotLabel(slot uint8) obs.Label {
	return obs.Label{Key: labelSlot, Value: fmt.Sprintf("%02d", slot)}
}

// ReportPER publishes a station's delivery error rate on its slot's gauge.
func (t *Table) ReportPER(s *Station, per float64) {
	t.reg.Gauge(metricStationPER, "per-station downlink packet error rate", slotLabel(s.Slot)).Set(per)
}

// AddDownlinkBytes accumulates a station's delivered downlink bytes.
func (t *Table) AddDownlinkBytes(s *Station, n int) {
	t.reg.Counter(metricStationBytes, "per-station delivered downlink bytes", slotLabel(s.Slot)).Add(int64(n))
}

// ReportCSIAge publishes the age of a station's cached channel feedback.
func (t *Table) ReportCSIAge(s *Station, age time.Duration) {
	t.reg.Gauge(metricCSIAge, "per-station CSI age", slotLabel(s.Slot)).Set(age.Seconds())
}

// Associate grants (or re-grants, for a retried nonce) an association. The
// returned station carries a fresh ARQ window on first grant; a duplicate
// nonce returns the existing state so retransmitted requests are
// idempotent.
func (t *Table) Associate(nonce uint64, rxAntennas int) (*Station, error) {
	if rxAntennas < 1 || rxAntennas > 4 {
		return nil, fmt.Errorf("apmac: %d receive antennas outside [1,4]", rxAntennas)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if id, ok := t.byNonce[nonce]; ok {
		if s, live := t.stations[id]; live {
			s.LastSeen = t.clk.Now()
			return s, nil
		}
	}
	arq, err := mac.NewARQSender(ARQWindow)
	if err != nil {
		return nil, err
	}
	t.nextID++
	if t.nextID == 0 { // the zero ID is the unassociated sentinel
		t.nextID = 1
	}
	id := t.nextID
	now := t.clk.Now()
	s := &Station{
		ID:         id,
		Slot:       t.grantSlot(id),
		RXAntennas: rxAntennas,
		Nonce:      nonce,
		Associated: now,
		LastSeen:   now,
		ARQ:        arq,
	}
	t.stations[id] = s
	t.byNonce[nonce] = id
	t.assocTotal.Inc()
	t.stationsGauge.Set(float64(len(t.stations)))
	return s, nil
}

// grantSlot picks the station's group-bitmap bit: the first free slot, or —
// when more than 64 stations are associated — the ID's wrapped slot, shared
// and disambiguated by the explicit station ID in addressed frames.
func (t *Table) grantSlot(id uint16) uint8 {
	for s := uint8(0); s < 64; s++ {
		if t.slots&(1<<s) == 0 {
			t.slots |= 1 << s
			return s
		}
	}
	return uint8(id % 64)
}

// Get returns a station by ID.
func (t *Table) Get(id uint16) (*Station, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s, ok := t.stations[id]
	return s, ok
}

// Touch records uplink liveness for a station.
func (t *Table) Touch(id uint16) {
	t.mu.Lock()
	if s, ok := t.stations[id]; ok {
		s.LastSeen = t.clk.Now()
	}
	t.mu.Unlock()
}

// Teardown removes a station (BYE or administrative), freeing its slot.
func (t *Table) Teardown(id uint16) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.teardownLocked(id)
}

func (t *Table) teardownLocked(id uint16) bool {
	s, ok := t.stations[id]
	if !ok {
		return false
	}
	delete(t.stations, id)
	delete(t.byNonce, s.Nonce)
	t.slots &^= 1 << s.Slot
	t.teardownTotal.Inc()
	t.stationsGauge.Set(float64(len(t.stations)))
	return true
}

// ExpireIdle tears down every station silent for longer than maxIdle and
// returns their IDs, sorted.
func (t *Table) ExpireIdle(maxIdle time.Duration) []uint16 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []uint16
	for id, s := range t.stations {
		if t.clk.Since(s.LastSeen) > maxIdle {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	for _, id := range out {
		t.teardownLocked(id)
	}
	return out
}

// StationInfo is one association's control-API view — what GET
// /api/stations reports per station.
type StationInfo struct {
	ID          uint16  `json:"id"`
	Slot        uint8   `json:"slot"`
	RXAntennas  int     `json:"rx_antennas"`
	AgeSeconds  float64 `json:"age_seconds"`
	IdleSeconds float64 `json:"idle_seconds"`
}

// Infos snapshots every association, sorted by ID.
func (t *Table) Infos() []StationInfo {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]StationInfo, 0, len(t.stations))
	for _, s := range t.stations {
		out = append(out, StationInfo{
			ID:          s.ID,
			Slot:        s.Slot,
			RXAntennas:  s.RXAntennas,
			AgeSeconds:  t.clk.Since(s.Associated).Seconds(),
			IdleSeconds: t.clk.Since(s.LastSeen).Seconds(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Len returns the associated station count.
func (t *Table) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.stations)
}

// IDs returns the associated station IDs, sorted — the deterministic
// iteration order scheduling rounds use.
func (t *Table) IDs() []uint16 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]uint16, 0, len(t.stations))
	for id := range t.stations {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
