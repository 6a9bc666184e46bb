package apmac

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"time"

	"repro/internal/clock"
	"repro/internal/cmatrix"
	"repro/internal/montecarlo"
	"repro/internal/mumimo"
	"repro/internal/sounding"
)

// Many-station MU-MIMO soak (experiment E25, tracked as SOAK_pr9.json).
//
// The soak stands up several independent cells — one access point each —
// and drives ≥100 stations through the full multi-user control loop at the
// abstracted link level: slotted-contention association (Backoff +
// Arbitrate), periodic sounding with quantized CSI feedback
// (sounding.Quantize → mumimo.Cache), orthogonality-aware group scheduling
// (mumimo.Scheduler), zero-forcing precoding from the *cached* feedback,
// and per-MPDU success draws from the post-precoding SINR evaluated against
// the *true* fading channel — so quantization error, CSI staleness, and
// churn degrade the link exactly the way they would on air.
//
// Determinism contract: every random stream derives from Config.Seed via
// montecarlo.ShardSeed (one shard per cell, one sub-stream per station), a
// cell is simulated serially, and cells merge in index order — so the
// scheduler-decision hash and every per-station counter are bit-identical
// at any worker count.

// slotDur is the simulated slot duration; CSI ages on this clock.
const slotDur = time.Millisecond

// soakTones is the per-report subcarrier count stations quantize, in the
// soak and on the live link. The link model is frequency-flat, so a handful
// of tones exercises the grouping path without bloating feedback.
const soakTones = 4

// E25 traffic and channel constants.
const (
	// soundInterval is the sounding cadence in slots; cached CSI expires
	// after four intervals.
	soundInterval = 20
	// coherenceSlots is the fading redraw interval for fading scenarios.
	coherenceSlots = 100
	// churnInterval: in churn scenarios, every this-many slots one station
	// tears down and later re-contends.
	churnInterval = 150
	// arrivalProb is the per-slot, per-station MPDU arrival probability.
	arrivalProb = 0.9
	// soakMPDUBytes is the payload per MPDU.
	soakMPDUBytes = 500
)

// stationNRX is station i's antenna count: stations alternate between one
// and two antennas.
func stationNRX(i int) int { return 1 + i%2 }

// SoakConfig sizes an E25 run. The zero value is invalid; use
// DefaultSoakConfig.
type SoakConfig struct {
	// Cells is the independent-AP count; each cell is one deterministic
	// shard. Scenarios rotate across cells (see soakScenarios).
	Cells int
	// StationsPerCell × Cells is the station population.
	StationsPerCell int
	// NTX is each AP's transmit antenna count (spatial stream budget).
	NTX int
	// Slots is the simulated slot count per cell.
	Slots int
	// SNRdB is the per-station average link SNR.
	SNRdB float64
	// Seed drives all randomness via montecarlo.ShardSeed.
	Seed int64
	// Workers bounds the cell worker pool (montecarlo semantics: ≤0 is
	// GOMAXPROCS, 1 serial). Results are identical at any value.
	Workers int
}

// DefaultSoakConfig is the tracked-artifact configuration: 120 stations
// across 4 cells, every scenario exercised.
func DefaultSoakConfig() SoakConfig {
	return SoakConfig{
		Cells:           4,
		StationsPerCell: 30,
		NTX:             4,
		Slots:           1500,
		SNRdB:           25,
		Seed:            1,
	}
}

func (c SoakConfig) withDefaults() SoakConfig {
	d := DefaultSoakConfig()
	if c.Cells <= 0 {
		c.Cells = d.Cells
	}
	if c.StationsPerCell <= 0 {
		c.StationsPerCell = d.StationsPerCell
	}
	if c.NTX <= 0 {
		c.NTX = d.NTX
	}
	if c.Slots <= 0 {
		c.Slots = d.Slots
	}
	if c.SNRdB == 0 {
		c.SNRdB = d.SNRdB
	}
	if c.Seed == 0 {
		c.Seed = d.Seed
	}
	return c
}

// soakScenarios rotates across cells: the control cell, fading only, churn
// only, and both.
var soakScenarios = []string{"static", "fading", "churn", "fading+churn"}

// StationStats is one station's slice of the soak result.
type StationStats struct {
	Cell     int    `json:"cell"`
	Station  int    `json:"station"`
	Scenario string `json:"scenario"`
	// Attempts and Errors count MPDU transmissions toward this station;
	// PER is their ratio (NaN-free: 0 when never scheduled).
	Attempts int     `json:"attempts"`
	Errors   int     `json:"errors"`
	PER      float64 `json:"per"`
	// DeliveredBits is the station's downlink payload volume.
	DeliveredBits int64 `json:"delivered_bits"`
	// Reassociations counts re-entries after churn teardown.
	Reassociations int `json:"reassociations"`
}

// SoakResult is the tracked E25 artifact.
type SoakResult struct {
	Cells           int      `json:"cells"`
	StationsPerCell int      `json:"stations_per_cell"`
	Stations        int      `json:"stations"`
	NTX             int      `json:"ntx"`
	Slots           int      `json:"slots"`
	SNRdB           float64  `json:"snr_db"`
	Seed            int64    `json:"seed"`
	Scenarios       []string `json:"scenarios"`

	// SchedHash is the FNV-64a digest of every cell's scheduling decisions
	// in slot order — the bit-identical-at-any-worker-count witness.
	SchedHash string `json:"sched_hash"`

	// MUThroughputMbps is the aggregate precoded downlink goodput;
	// SUBaselineMbps is the round-robin single-user TDMA baseline over the
	// same channels with full-array single-stream gain.
	MUThroughputMbps float64 `json:"mu_throughput_mbps"`
	SUBaselineMbps   float64 `json:"su_baseline_mbps"`

	// MU2x2SumRate / SU2x2BestRate are the deterministic well-conditioned
	// 2×2 spectral-efficiency comparison (bit/s/Hz): two near-orthogonal
	// single-antenna stations served simultaneously by ZF vs the better of
	// them served alone. MU must exceed SU here.
	MU2x2SumRate  float64 `json:"mu_2x2_sum_rate"`
	SU2x2BestRate float64 `json:"su_2x2_best_rate"`

	AssocAttempts   int `json:"assoc_attempts"`
	Collisions      int `json:"collisions"`
	Reassociations  int `json:"reassociations"`
	CSIEvictions    int `json:"csi_evictions"`
	PrecodeFailures int `json:"precode_failures"`
	ScheduledSlots  int `json:"scheduled_slots"`

	PerStation []StationStats `json:"per_station"`
}

// cellResult is one shard's output, merged in cell order.
type cellResult struct {
	stats           []StationStats
	schedHash       uint64
	muBits          int64
	suBits          int64
	assocAttempts   int
	collisions      int
	reassociations  int
	csiEvictions    int
	precodeFailures int
	scheduledSlots  int
}

// soakStation is one simulated station's ground truth.
type soakStation struct {
	idx     int // stable station number within the cell
	nrx     int
	rng     *rand.Rand
	backoff *Backoff
	h       *cmatrix.Matrix // true channel, nrx×ntx
	id      uint16          // AP-assigned; 0 when unassociated
	away    int             // slots until a churned-out station returns
	queue   int
	assocs  int
	stats   StationStats
}

// RunSoak executes the E25 many-station soak.
func RunSoak(cfg SoakConfig) (*SoakResult, error) {
	cfg = cfg.withDefaults()
	if cfg.Cells*cfg.StationsPerCell < 1 {
		return nil, fmt.Errorf("apmac: soak needs at least one station")
	}
	cells, err := montecarlo.Map(cfg.Cells, cfg.Workers, func(cell int) (*cellResult, error) {
		return runCell(cfg, cell)
	})
	if err != nil {
		return nil, err
	}
	res := &SoakResult{
		Cells:           cfg.Cells,
		StationsPerCell: cfg.StationsPerCell,
		Stations:        cfg.Cells * cfg.StationsPerCell,
		NTX:             cfg.NTX,
		Slots:           cfg.Slots,
		SNRdB:           cfg.SNRdB,
		Seed:            cfg.Seed,
	}
	digest := fnv.New64a()
	var scratch [8]byte
	for cell, c := range cells {
		res.Scenarios = append(res.Scenarios, cellScenario(cell))
		binary.BigEndian.PutUint64(scratch[:], c.schedHash)
		digest.Write(scratch[:])
		res.PerStation = append(res.PerStation, c.stats...)
		res.MUThroughputMbps += mbps(c.muBits, cfg.Slots)
		res.SUBaselineMbps += mbps(c.suBits, cfg.Slots)
		res.AssocAttempts += c.assocAttempts
		res.Collisions += c.collisions
		res.Reassociations += c.reassociations
		res.CSIEvictions += c.csiEvictions
		res.PrecodeFailures += c.precodeFailures
		res.ScheduledSlots += c.scheduledSlots
	}
	res.SchedHash = fmt.Sprintf("%016x", digest.Sum64())
	res.MU2x2SumRate, res.SU2x2BestRate = WellConditioned2x2(cfg.SNRdB)
	return res, nil
}

// mbps converts delivered bits over a slot count into Mbit/s.
func mbps(bits int64, slots int) float64 {
	seconds := float64(slots) * slotDur.Seconds()
	if seconds <= 0 {
		return 0
	}
	return float64(bits) / seconds / 1e6
}

func cellScenario(cell int) string {
	return soakScenarios[cell%len(soakScenarios)]
}

// runCell simulates one cell serially. All randomness derives from the
// cell's shard seed; nothing escapes but the returned counters.
func runCell(cfg SoakConfig, cell int) (*cellResult, error) {
	scenario := cellScenario(cell)
	fading := scenario == "fading" || scenario == "fading+churn"
	churn := scenario == "churn" || scenario == "fading+churn"
	cellSeed := montecarlo.ShardSeed(cfg.Seed, cell)
	snr := math.Pow(10, cfg.SNRdB/10)
	mpduBits := int64(soakMPDUBytes) * 8

	clk := clock.NewFake(time.Unix(0, 0))
	table := NewTable(clk)
	cache := mumimo.NewCache(clk, time.Duration(4*soundInterval)*slotDur)
	sched := &mumimo.Scheduler{NTX: cfg.NTX}
	baseRng := rand.New(rand.NewSource(montecarlo.ShardSeed(cellSeed, 1<<20)))

	stations := make([]*soakStation, cfg.StationsPerCell)
	byID := map[uint16]*soakStation{}
	for i := range stations {
		rng := rand.New(rand.NewSource(montecarlo.ShardSeed(cellSeed, i)))
		bo, err := NewBackoff(rng, DefaultCWMinExp, DefaultCWMaxExp)
		if err != nil {
			return nil, err
		}
		st := &soakStation{
			idx:     i,
			nrx:     stationNRX(i),
			rng:     rng,
			backoff: bo,
			stats:   StationStats{Cell: cell, Station: i, Scenario: scenario},
		}
		st.h = drawChannel(rng, st.nrx, cfg.NTX)
		stations[i] = st
	}

	out := &cellResult{}
	digest := fnv.New64a()
	var scratch [8]byte
	hash64 := func(v uint64) {
		binary.BigEndian.PutUint64(scratch[:], v)
		digest.Write(scratch[:])
	}

	for slot := 0; slot < cfg.Slots; slot++ {
		clk.Advance(slotDur)

		// Fading: redraw every station's true channel each coherence
		// interval. Cached CSI keeps pointing at the previous draw until
		// the next sounding round — precoding from stale feedback is the
		// point of the scenario.
		if fading && slot > 0 && slot%coherenceSlots == 0 {
			for _, st := range stations {
				st.h = drawChannel(st.rng, st.nrx, cfg.NTX)
			}
		}

		// Churn: one station (cycling deterministically) tears down and
		// stays away for half an interval before re-contending.
		if churn && slot > 0 && slot%churnInterval == 0 {
			victim := stations[(slot/churnInterval-1)%len(stations)]
			if victim.id != 0 {
				table.Teardown(victim.id)
				cache.Remove(victim.id)
				delete(byID, victim.id)
				victim.id = 0
				victim.queue = 0
				victim.away = churnInterval / 2
			}
		}

		// Traffic arrivals, in station order.
		for _, st := range stations {
			if st.away > 0 {
				st.away--
				continue
			}
			if st.rng.Float64() < arrivalProb {
				st.queue++
			}
		}

		// Slotted-contention association: every unassociated, present
		// station draws a subslot from its backoff window; unique draws
		// win, shared draws collide and double their windows.
		picks := map[uint16]*soakStation{}
		draws := map[uint16]int{}
		for _, st := range stations {
			if st.id != 0 || st.away > 0 {
				continue
			}
			key := uint16(st.idx + 1)
			picks[key] = st
			draws[key] = st.backoff.Draw()
			out.assocAttempts++
		}
		if len(draws) > 0 {
			winners, collided := Arbitrate(draws)
			for _, key := range winners {
				st := picks[key]
				nonce := uint64(cell+1)<<40 | uint64(st.idx+1)<<16 | uint64(st.assocs)
				s, err := table.Associate(nonce, st.nrx)
				if err != nil {
					return nil, err
				}
				st.id = s.ID
				byID[s.ID] = st
				st.backoff.Success()
				if st.assocs > 0 {
					st.stats.Reassociations++
					out.reassociations++
				}
				st.assocs++
			}
			for _, key := range collided {
				picks[key].backoff.Collision()
				out.collisions++
			}
		}

		// Sounding round: associated stations quantize their current true
		// channel; the AP caches the dequantized estimate.
		if slot%soundInterval == 0 {
			for _, st := range stations {
				if st.id == 0 {
					continue
				}
				tones := make([]*cmatrix.Matrix, soakTones)
				for t := range tones {
					tones[t] = st.h
				}
				fb, err := sounding.Quantize(tones, 1)
				if err != nil {
					return nil, err
				}
				if _, err := cache.UpdateFeedback(st.id, fb, snr); err != nil {
					return nil, err
				}
				table.Touch(st.id)
				if s, ok := table.Get(st.id); ok {
					if age, live := cache.Age(st.id); live {
						table.ReportCSIAge(s, age)
					}
				}
			}
		}
		out.csiEvictions += cache.Sweep()

		// Schedule and transmit the precoded group.
		cands := make([]mumimo.Candidate, 0, len(byID))
		for _, id := range table.IDs() {
			st := byID[id]
			entry, _ := cache.Get(id)
			cands = append(cands, mumimo.Candidate{Station: id, Queue: st.queue, Entry: entry})
		}
		group, _ := sched.Pick(cands)

		hash64(uint64(slot))
		hash64(group.Bitmap)
		hash64(uint64(len(group.Members)))
		for _, m := range group.Members {
			hash64(uint64(m.Station)<<16 | uint64(len(m.Streams)))
		}

		if len(group.Members) > 0 {
			out.scheduledSlots++
			if err := transmitGroup(cfg, table, cache, byID, group, snr, mpduBits, out); err != nil {
				return nil, err
			}
		}

		// Single-user TDMA baseline over the same channel draws: serve the
		// associated stations round-robin, one full-array single stream per
		// slot, from an independent random stream so the two systems'
		// draws cannot entangle.
		ids := table.IDs()
		if len(ids) > 0 {
			st := byID[ids[slot%len(ids)]]
			suSNRdB := 10 * math.Log10(snr*frob2(st.h))
			if baseRng.Float64() > perFromSINR(suSNRdB) {
				out.suBits += mpduBits
			}
		}
	}

	for _, st := range stations {
		if st.stats.Attempts > 0 {
			st.stats.PER = float64(st.stats.Errors) / float64(st.stats.Attempts)
		}
		if s, ok := table.Get(st.id); ok {
			table.ReportPER(s, st.stats.PER)
		}
		out.stats = append(out.stats, st.stats)
	}
	out.schedHash = digest.Sum64()
	return out, nil
}

// transmitGroup precodes from the cached (quantized, possibly stale) CSI,
// evaluates the resulting SINR against the true channels, and draws
// per-MPDU successes. A failed MPDU stays queued — the retry is the ARQ
// abstraction at this model level.
func transmitGroup(cfg SoakConfig, table *Table, cache *mumimo.Cache, byID map[uint16]*soakStation,
	group mumimo.Group, snr float64, mpduBits int64, out *cellResult) error {
	cached := make([]*cmatrix.Matrix, 0, len(group.Members))
	truth := make([]*cmatrix.Matrix, 0, len(group.Members))
	for _, m := range group.Members {
		st := byID[m.Station]
		entry, ok := cache.Get(m.Station)
		if !ok {
			return fmt.Errorf("apmac: scheduled station %d without CSI", m.Station)
		}
		cached = append(cached, takeRows(entry.Mean(), len(m.Streams)))
		truth = append(truth, takeRows(st.h, len(m.Streams)))
	}
	w, err := mumimo.ZFPrecode(mumimo.StackChannels(cached))
	if err != nil {
		out.precodeFailures++
		return nil // rank-deficient feedback: skip the slot, not the soak
	}
	sinrs, err := mumimo.PostPrecodingSINR(mumimo.StackChannels(truth), w, snr)
	if err != nil {
		return err
	}
	for _, m := range group.Members {
		st := byID[m.Station]
		for _, stream := range m.Streams {
			if st.queue <= 0 {
				break
			}
			sinrdB := 10 * math.Log10(sinrs[stream])
			st.stats.Attempts++
			if st.rng.Float64() > perFromSINR(sinrdB) {
				st.queue--
				st.stats.DeliveredBits += mpduBits
				out.muBits += mpduBits
				if s, ok := table.Get(st.id); ok {
					table.AddDownlinkBytes(s, soakMPDUBytes)
				}
			} else {
				st.stats.Errors++
			}
		}
	}
	return nil
}

// perFromSINR is the abstracted rate-adapted link: a logistic packet-error
// waterfall centered at 12 dB post-detection SINR with a 1.5 dB slope —
// ~50% PER at the center, <1% above ~19 dB, saturating toward 1 in deep
// interference.
func perFromSINR(sinrdB float64) float64 {
	return 1 / (1 + math.Exp((sinrdB-12)/1.5))
}

// drawChannel draws an i.i.d. Rayleigh nrx×ntx channel with unit average
// entry power.
func drawChannel(rng *rand.Rand, nrx, ntx int) *cmatrix.Matrix {
	h := cmatrix.New(nrx, ntx)
	for i := range h.Data {
		h.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64()) / complex(math.Sqrt2, 0)
	}
	return h
}

// takeRows returns the first n rows of m (n ≤ m.Rows).
func takeRows(m *cmatrix.Matrix, n int) *cmatrix.Matrix {
	if n >= m.Rows {
		return m
	}
	out := cmatrix.New(n, m.Cols)
	copy(out.Data, m.Data[:n*m.Cols])
	return out
}

// frob2 is the squared Frobenius norm — the full-array gain of a
// single-stream maximum-ratio transmission.
func frob2(m *cmatrix.Matrix) float64 {
	var acc float64
	for _, v := range m.Data {
		acc += real(v)*real(v) + imag(v)*imag(v)
	}
	return acc
}

// WellConditioned2x2 is the acceptance comparison on a fixed, nearly
// orthogonal 2×2 downlink: two single-antenna stations served
// simultaneously through ZF precoding versus the better of them served
// alone (full power, single stream). Returns Shannon spectral efficiencies
// in bit/s/Hz; multi-user must win on a channel this well conditioned.
func WellConditioned2x2(snrdB float64) (muSumRate, suBestRate float64) {
	snr := math.Pow(10, snrdB/10)
	h := cmatrix.FromRows([][]complex128{
		{1, 0.1},
		{0.1i, 1},
	})
	w, err := mumimo.ZFPrecode(h)
	if err != nil {
		return 0, 0
	}
	sinrs, err := mumimo.PostPrecodingSINR(h, w, snr)
	if err != nil {
		return 0, 0
	}
	for _, s := range sinrs {
		muSumRate += math.Log2(1 + s)
	}
	for r := 0; r < h.Rows; r++ {
		var gain float64
		for c := 0; c < h.Cols; c++ {
			v := h.At(r, c)
			gain += real(v)*real(v) + imag(v)*imag(v)
		}
		if rate := math.Log2(1 + snr*gain); rate > suBestRate {
			suBestRate = rate
		}
	}
	return muSumRate, suBestRate
}
