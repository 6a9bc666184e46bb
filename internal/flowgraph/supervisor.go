package flowgraph

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/metrics"
	"repro/internal/obs"
)

// Policy tunes block supervision. The zero value still contains panics
// (recovered into typed BlockErrors), always cascades channel closure, and
// joins every block failure — but performs no restarts, no stall detection,
// and no per-chunk health accounting.
type Policy struct {
	// MaxRestarts bounds supervisor restarts per Restartable block.
	MaxRestarts int
	// BackoffBase is the delay before the first restart; it doubles per
	// subsequent restart up to BackoffMax. Defaults: 10ms and 1s when
	// restarts are enabled.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// StallTimeout enables the per-block watchdog: a block that makes no
	// chunk progress for this long while input is pending (or, for a
	// source, while downstream has capacity) is declared stalled and its
	// attempt is cancelled. Zero disables the watchdog.
	StallTimeout time.Duration
	// TrackHealth enables per-chunk health accounting (edge pumps) even
	// without a watchdog. Implied by StallTimeout > 0.
	TrackHealth bool
	// Metrics, when set, is the obs registry the graph exposes itself
	// through: per-block health counters register under the
	// mimonet_block_* families and every edge pump maintains a queue-depth
	// gauge and a delivery-wait histogram (whose _count is the chunk
	// throughput series). Setting it implies edge instrumentation. Nil
	// keeps the un-instrumented fast path allocation-free.
	Metrics *obs.Registry
	// Clock supplies the time source for the watchdog, backoff, and grace
	// waits. Nil means the system clock; tests inject clock.Fake to drive
	// stall detection without wall-clock sleeps.
	Clock clock.Clock
	// Logger, when set, receives structured supervision events — block
	// stalls, panics, restarts, and terminal failures — with the block name
	// and attempt attached. Nil keeps supervision silent.
	Logger *slog.Logger
	// OnRestart, when set, observes every supervisor restart just before
	// the block re-runs: the hook a flight recorder uses to dump the
	// evidence ring that preceded the crash. err is the failure that
	// triggered the restart.
	OnRestart func(block string, attempt int, err error)
}

func (p Policy) withDefaults() Policy {
	if p.MaxRestarts > 0 {
		if p.BackoffBase <= 0 {
			p.BackoffBase = 10 * time.Millisecond
		}
		if p.BackoffMax < p.BackoffBase {
			p.BackoffMax = time.Second
			if p.BackoffMax < p.BackoffBase {
				p.BackoffMax = p.BackoffBase
			}
		}
	}
	p.Clock = clock.Or(p.Clock)
	return p
}

// stallGrace bounds the wait for a cancelled attempt to unwind before its
// goroutine is abandoned.
const stallGrace = 300 * time.Millisecond

// instrumented reports whether edges need counting pumps.
func (p Policy) instrumented() bool {
	return p.TrackHealth || p.StallTimeout > 0 || p.Metrics != nil
}

// edgeObs holds one edge's exposition instruments. A nil *edgeObs (no
// Policy.Metrics) keeps the pump on its metric-free path with zero clock
// reads per chunk.
type edgeObs struct {
	// queue tracks the producer-side proxy buffer occupancy in chunks.
	queue *obs.Gauge
	// wait observes the seconds each chunk spends blocked between the
	// producer proxy and consumer acceptance — the backpressure-wait /
	// chunk-delivery latency distribution. Its _count doubles as the
	// per-edge chunk throughput counter (items/sec under rate()).
	wait *obs.Histogram
	clk  clock.Clock
}

// newEdgeObs registers the instruments for one edge, labelled
// edge="from:port->to:port". Returns nil when no registry is configured.
func newEdgeObs(reg *obs.Registry, clk clock.Clock, edge string) *edgeObs {
	if reg == nil {
		return nil
	}
	label := obs.Label{Key: "edge", Value: edge}
	return &edgeObs{
		queue: reg.Gauge("mimonet_edge_queue_depth",
			"chunks buffered in the edge's producer-side proxy", label),
		wait: reg.Histogram("mimonet_edge_wait_seconds",
			"seconds a chunk waits between production and consumer acceptance",
			obs.ExpBuckets(1e-6, 4, 10), label),
		clk: clk,
	}
}

// blockState is the supervisor's runtime accounting for one block.
type blockState struct {
	name   string
	health *metrics.Health
	// inWait counts edge pumps blocked delivering a chunk into this block —
	// pending input the block is not consuming.
	inWait atomic.Int64
	// outPressure counts this block's out-edge pumps blocked pushing a
	// chunk downstream — the block is backpressured, not stalled.
	outPressure atomic.Int64
}

// activity is the watchdog's progress measure.
func (st *blockState) activity() int64 { return st.health.ChunksIn() + st.health.ChunksOut() }

// pump forwards chunks from a producer-side proxy channel to a
// consumer-side one, counting per-block progress so the watchdog can tell a
// stalled block from a merely idle or backpressured one. When eo is set it
// additionally maintains the edge's exposition instruments (queue depth,
// delivery-wait histogram); when nil, no clock is read and nothing
// allocates per chunk. It closes the downstream channel on exit so shutdown
// cascades even under cancellation.
func pump(ctx context.Context, from <-chan Chunk, to chan<- Chunk, prod, cons *blockState, eo *edgeObs) {
	defer close(to)
	for {
		var c Chunk
		var ok bool
		select {
		case c, ok = <-from:
		case <-ctx.Done():
			return
		}
		if !ok {
			return
		}
		prod.health.AddOut(1)
		prod.outPressure.Add(1)
		cons.inWait.Add(1)
		var sendStart time.Time
		if eo != nil {
			eo.queue.Set(float64(len(from)))
			sendStart = eo.clk.Now()
		}
		select {
		case to <- c:
			prod.outPressure.Add(-1)
			cons.inWait.Add(-1)
			cons.health.AddIn(1)
			if eo != nil {
				eo.wait.Observe(eo.clk.Since(sendStart).Seconds())
			}
		case <-ctx.Done():
			prod.outPressure.Add(-1)
			cons.inWait.Add(-1)
			return
		}
	}
}

// supervisor drives every block through panic containment, the stall
// watchdog, and the restart policy.
type supervisor struct {
	policy Policy
	states map[Block]*blockState
}

// runBlock owns one block's lifecycle: attempts with backoff in between,
// and — always — closing the block's owned output channels on the way out
// so downstream shutdown cascades no matter how the block died.
func (s *supervisor) runBlock(ctx context.Context, b Block, ins []<-chan Chunk, outs []chan<- Chunk, owned []chan Chunk) error {
	st := s.states[b]
	defer func() {
		for _, ch := range owned {
			if ch != nil {
				close(ch)
			}
		}
	}()
	restartable := false
	if r, ok := b.(Restartable); ok {
		restartable = r.Restartable()
	}
	for attempt := 0; ; attempt++ {
		berr := s.attempt(ctx, b, st, attempt, ins, outs)
		if berr == nil {
			return nil
		}
		if berr.Kind == KindFatal || !restartable || attempt >= s.policy.MaxRestarts || ctx.Err() != nil {
			s.logEvent(slog.LevelError, "block failed", st.name, attempt, berr)
			return berr
		}
		delay := s.policy.BackoffBase
		for i := 0; i < attempt && delay < s.policy.BackoffMax; i++ {
			delay *= 2
		}
		if delay > s.policy.BackoffMax {
			delay = s.policy.BackoffMax
		}
		s.logEvent(slog.LevelWarn, "block restarting", st.name, attempt, berr)
		timer := s.policy.Clock.NewTimer(delay)
		select {
		case <-timer.C:
		case <-ctx.Done():
			timer.Stop()
			return berr
		}
		st.health.AddRestart()
		if s.policy.OnRestart != nil {
			s.policy.OnRestart(st.name, attempt+1, berr)
		}
	}
}

// logEvent emits one supervision record through the policy logger, carrying
// the canonical block attribute plus the attempt index and failure taxonomy.
func (s *supervisor) logEvent(level slog.Level, msg, block string, attempt int, berr *BlockError) {
	if s.policy.Logger == nil {
		return
	}
	s.policy.Logger.Log(context.Background(), level, msg,
		obs.LogBlock(block), slog.Int("attempt", attempt),
		slog.String("kind", berr.Kind.String()), slog.String("err", berr.Err.Error()))
}

// attempt runs Run once with panic containment and, when enabled, the stall
// watchdog. nil means clean completion (or cooperative cancellation).
func (s *supervisor) attempt(ctx context.Context, b Block, st *blockState, attempt int, ins []<-chan Chunk, outs []chan<- Chunk) *BlockError {
	attemptCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	res := make(chan *BlockError, 1)
	go func() {
		defer func() {
			if p := recover(); p != nil {
				st.health.AddPanic()
				res <- &BlockError{Block: st.name, Kind: KindPanic, Attempt: attempt, Err: fmt.Errorf("panic: %v", p)}
			}
		}()
		res <- classify(st.name, attempt, b.Run(attemptCtx, ins, outs))
	}()
	if s.policy.StallTimeout <= 0 {
		return <-res
	}
	poll := s.policy.StallTimeout / 4
	if poll < time.Millisecond {
		poll = time.Millisecond
	}
	clk := s.policy.Clock
	tick := clk.NewTicker(poll)
	defer tick.Stop()
	last := st.activity()
	lastChange := clk.Now()
	for {
		select {
		case be := <-res:
			return be
		case <-tick.C:
			if ctx.Err() != nil {
				// Graph is shutting down; give the block a bounded window
				// to unwind rather than hanging Run on a wedged goroutine.
				grace := stallGrace
				if grace < s.policy.StallTimeout {
					grace = s.policy.StallTimeout
				}
				select {
				case be := <-res:
					return be
				case <-clk.After(grace):
					st.health.AddAbandoned()
					return &BlockError{Block: st.name, Kind: KindStall, Attempt: attempt,
						Err: fmt.Errorf("%w (goroutine abandoned during shutdown)", ErrStall)}
				}
			}
			if cur := st.activity(); cur != last {
				last, lastChange = cur, clk.Now()
				continue
			}
			// A block is stalled only when it demonstrably has work it is
			// not doing: an upstream pump waiting to deliver, or — for a
			// source — downstream capacity it is not filling.
			pending := st.inWait.Load() > 0 || (b.Inputs() == 0 && st.outPressure.Load() == 0)
			if !pending || clk.Since(lastChange) < s.policy.StallTimeout {
				continue
			}
			st.health.AddStall()
			cancel()
			serr := fmt.Errorf("%w (after %d chunks)", ErrStall, st.activity())
			select {
			case <-res:
				// The attempt unwound cooperatively; report the stall, not
				// the context error the cancelled Run returned.
				return &BlockError{Block: st.name, Kind: KindStall, Attempt: attempt, Err: serr}
			case <-clk.After(stallGrace):
				st.health.AddAbandoned()
				return &BlockError{Block: st.name, Kind: KindStall, Attempt: attempt,
					Err: fmt.Errorf("%w (goroutine abandoned)", serr)}
			}
		}
	}
}

// classify maps a Run return value onto the error taxonomy. Cooperative
// cancellation is not a failure — the graph-level context error surfaces
// from Run itself.
func classify(name string, attempt int, err error) *BlockError {
	if err == nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return nil
	}
	var be *BlockError
	if errors.As(err, &be) {
		return be
	}
	kind := KindFatal
	if IsRecoverable(err) {
		kind = KindRecoverable
	}
	return &BlockError{Block: name, Kind: kind, Attempt: attempt, Err: err}
}
