package metrics

import (
	"fmt"

	"repro/internal/obs"
)

// Block health family names in the obs registry. One family per counter,
// labelled by block name, so flowgraph health and the /metrics exposition
// share a single metrics root.
const (
	FamChunksIn  = "mimonet_block_chunks_in_total"
	FamChunksOut = "mimonet_block_chunks_out_total"
	FamRestarts  = "mimonet_block_restarts_total"
	FamPanics    = "mimonet_block_panics_total"
	FamStalls    = "mimonet_block_stalls_total"
	FamAbandoned = "mimonet_block_abandoned_total"
)

// Health is the per-block runtime counter set the flowgraph supervisor
// maintains: chunk progress through the block's ports plus the supervision
// events (restarts, recovered panics, stall detections, abandoned
// goroutines). It is a thin wrapper over obs counters — constructed via
// NewHealthIn they live in an exposition registry, or standalone with a nil
// registry — so there is one metrics root, not two. All methods
// are safe for concurrent use; the supervisor writes from scheduler
// goroutines while monitors read snapshots.
type Health struct {
	chunksIn  *obs.Counter
	chunksOut *obs.Counter
	restarts  *obs.Counter
	panics    *obs.Counter
	stalls    *obs.Counter
	abandoned *obs.Counter
}

// NewHealthIn returns a counter set whose counters are registered in reg
// under the mimonet_block_* families, labelled block=<block>, so the same
// atomics feed both Graph.Health snapshots and the /metrics exposition. A
// nil registry yields standalone (unexposed but fully functional) counters.
func NewHealthIn(reg *obs.Registry, block string) *Health {
	counter := func(name, help string) *obs.Counter {
		if reg == nil {
			return obs.NewCounter()
		}
		//mimonet:obshygiene-ok name is constant at every call site (Fam* consts below)
		return reg.Counter(name, help, obs.Label{Key: obs.KeyBlock, Value: block})
	}
	return &Health{
		chunksIn:  counter(FamChunksIn, "chunks delivered into the block"),
		chunksOut: counter(FamChunksOut, "chunks produced by the block"),
		restarts:  counter(FamRestarts, "supervisor restarts of the block"),
		panics:    counter(FamPanics, "panics recovered from the block's Run"),
		stalls:    counter(FamStalls, "watchdog stall detections"),
		abandoned: counter(FamAbandoned, "block goroutines abandoned during shutdown"),
	}
}

// AddIn records n chunks delivered into the block.
func (h *Health) AddIn(n int64) { h.chunksIn.Add(n) }

// AddOut records n chunks produced by the block.
func (h *Health) AddOut(n int64) { h.chunksOut.Add(n) }

// AddRestart records a supervisor restart of the block.
func (h *Health) AddRestart() { h.restarts.Inc() }

// AddPanic records a panic recovered from the block's Run.
func (h *Health) AddPanic() { h.panics.Inc() }

// AddStall records a watchdog stall detection.
func (h *Health) AddStall() { h.stalls.Inc() }

// AddAbandoned records a block goroutine that did not unwind within the
// supervisor's grace period after cancellation.
func (h *Health) AddAbandoned() { h.abandoned.Inc() }

// ChunksIn returns the chunks delivered into the block so far.
func (h *Health) ChunksIn() int64 { return h.chunksIn.Value() }

// ChunksOut returns the chunks produced by the block so far.
func (h *Health) ChunksOut() int64 { return h.chunksOut.Value() }

// Snapshot returns a point-in-time copy of the counters.
func (h *Health) Snapshot() HealthSnapshot {
	return HealthSnapshot{
		ChunksIn:  h.chunksIn.Value(),
		ChunksOut: h.chunksOut.Value(),
		Restarts:  h.restarts.Value(),
		Panics:    h.panics.Value(),
		Stalls:    h.stalls.Value(),
		Abandoned: h.abandoned.Value(),
	}
}

// HealthSnapshot is a plain-value copy of a Health counter set.
type HealthSnapshot struct {
	ChunksIn, ChunksOut                 int64
	Restarts, Panics, Stalls, Abandoned int64
}

func (s HealthSnapshot) String() string {
	return fmt.Sprintf("in=%d out=%d restarts=%d panics=%d stalls=%d abandoned=%d",
		s.ChunksIn, s.ChunksOut, s.Restarts, s.Panics, s.Stalls, s.Abandoned)
}
