// Package flowgraph is a small GNU-Radio-style stream-processing engine: a
// graph of blocks connected by typed sample streams, each block running in
// its own goroutine with backpressure provided by bounded channels. It is
// the substrate that stands in for the GNU Radio runtime the paper builds
// on — the paper's "modified and added blocks" map onto Block
// implementations (see package blocks).
//
// Design notes, following Effective Go: blocks share memory by
// communicating. A chunk ([]complex128) is owned by the receiver once sent;
// senders must not retain or reuse it.
package flowgraph

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/metrics"
)

// Chunk is the unit of streaming: a slice of baseband samples.
type Chunk []complex128

// Block is a node in the flowgraph. Run reads from its input streams and
// writes to its output streams until the inputs are exhausted (closed), the
// context is cancelled, or an error occurs. On return the scheduler closes
// the block's outputs, which cascades shutdown downstream.
//
// Inputs and Outputs declare the port counts; Connect validates against
// them.
type Block interface {
	Name() string
	Inputs() int
	Outputs() int
	Run(ctx context.Context, in []<-chan Chunk, out []chan<- Chunk) error
}

// DefaultBufferDepth is the per-edge channel buffer (in chunks).
const DefaultBufferDepth = 8

// Graph assembles blocks and edges and executes them under supervision:
// every block goroutine recovers panics into typed BlockErrors, outputs are
// always closed so shutdown cascades, and — when a Policy enables them — a
// watchdog detects stalls and Restartable blocks are re-run with backoff.
type Graph struct {
	mu      sync.Mutex
	blocks  []Block
	edges   map[edgeKey]chan Chunk
	inUsed  map[portKey]bool
	outUsed map[portKey]bool
	started bool
	policy  Policy
	health  map[string]*metrics.Health
}

type edgeKey struct {
	from    Block
	fromOut int
	to      Block
	toIn    int
}

type portKey struct {
	b    Block
	port int
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{
		edges:   make(map[edgeKey]chan Chunk),
		inUsed:  make(map[portKey]bool),
		outUsed: make(map[portKey]bool),
	}
}

// Add registers a block. Adding the same block twice is an error.
func (g *Graph) Add(b Block) error {
	if b == nil {
		return errors.New("flowgraph: nil block")
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.started {
		return errors.New("flowgraph: graph already started")
	}
	for _, have := range g.blocks {
		if have == b {
			return fmt.Errorf("flowgraph: block %q added twice", b.Name())
		}
	}
	g.blocks = append(g.blocks, b)
	return nil
}

// Connect wires output port fromOut of block from to input port toIn of
// block to. Every port may be connected at most once (use an explicit
// fan-out block to duplicate a stream).
func (g *Graph) Connect(from Block, fromOut int, to Block, toIn int) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.started {
		return errors.New("flowgraph: graph already started")
	}
	if !g.has(from) || !g.has(to) {
		return errors.New("flowgraph: connect blocks must be added first")
	}
	if fromOut < 0 || fromOut >= from.Outputs() {
		return fmt.Errorf("flowgraph: %q has no output %d", from.Name(), fromOut)
	}
	if toIn < 0 || toIn >= to.Inputs() {
		return fmt.Errorf("flowgraph: %q has no input %d", to.Name(), toIn)
	}
	ok := portKey{from, fromOut}
	ik := portKey{to, toIn}
	if g.outUsed[ok] {
		return fmt.Errorf("flowgraph: output %q:%d already connected", from.Name(), fromOut)
	}
	if g.inUsed[ik] {
		return fmt.Errorf("flowgraph: input %q:%d already connected", to.Name(), toIn)
	}
	g.outUsed[ok] = true
	g.inUsed[ik] = true
	g.edges[edgeKey{from, fromOut, to, toIn}] = make(chan Chunk, DefaultBufferDepth)
	return nil
}

func (g *Graph) has(b Block) bool {
	for _, have := range g.blocks {
		if have == b {
			return true
		}
	}
	return false
}

// SetPolicy installs the supervision policy. Must be called before Run.
func (g *Graph) SetPolicy(p Policy) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.started {
		return errors.New("flowgraph: graph already started")
	}
	g.policy = p
	return nil
}

// Health returns per-block health snapshots, keyed by block name (names
// colliding within one graph are uniquified with a "#index" suffix). Chunk
// counters are populated only when the policy enables instrumentation
// (TrackHealth or a stall watchdog); supervision counters always are.
// Safe to call during and after Run.
func (g *Graph) Health() map[string]metrics.HealthSnapshot {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make(map[string]metrics.HealthSnapshot, len(g.health))
	for name, h := range g.health {
		out[name] = h.Snapshot()
	}
	return out
}

// Run validates that every declared port is connected, starts one
// supervised goroutine per block, and waits for completion. Block panics
// are recovered into BlockErrors, stalled blocks are detected and cancelled
// (when the policy sets a StallTimeout), Restartable blocks are re-run with
// exponential backoff, and every block failure is reported — Run joins them
// with errors.Join. Cancelling ctx stops the graph and returns ctx.Err().
func (g *Graph) Run(ctx context.Context) error {
	g.mu.Lock()
	if g.started {
		g.mu.Unlock()
		return errors.New("flowgraph: graph already started")
	}
	for _, b := range g.blocks {
		for p := 0; p < b.Inputs(); p++ {
			if !g.inUsed[portKey{b, p}] {
				g.mu.Unlock()
				return fmt.Errorf("flowgraph: input %q:%d unconnected", b.Name(), p)
			}
		}
		for p := 0; p < b.Outputs(); p++ {
			if !g.outUsed[portKey{b, p}] {
				g.mu.Unlock()
				return fmt.Errorf("flowgraph: output %q:%d unconnected", b.Name(), p)
			}
		}
	}
	g.started = true
	policy := g.policy.withDefaults()
	blocks := append([]Block(nil), g.blocks...)
	states := make(map[Block]*blockState, len(blocks))
	g.health = make(map[string]*metrics.Health, len(blocks))
	for i, b := range blocks {
		name := b.Name()
		if _, dup := g.health[name]; dup {
			name = fmt.Sprintf("%s#%d", name, i)
		}
		h := metrics.NewHealthIn(policy.Metrics, name)
		g.health[name] = h
		states[b] = &blockState{name: name, health: h}
	}
	// Snapshot per-block port channels. Under instrumentation each edge is
	// split into a producer-side proxy and the original channel, joined by a
	// counting pump; otherwise blocks talk over the edges directly.
	ins := make(map[Block][]<-chan Chunk)
	outs := make(map[Block][]chan<- Chunk)
	outOwned := make(map[Block][]chan Chunk)
	for _, b := range blocks {
		ins[b] = make([]<-chan Chunk, b.Inputs())
		outs[b] = make([]chan<- Chunk, b.Outputs())
		outOwned[b] = make([]chan Chunk, b.Outputs())
	}
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var pumps []func()
	for k, ch := range g.edges {
		if !policy.instrumented() {
			outs[k.from][k.fromOut] = ch
			outOwned[k.from][k.fromOut] = ch
			ins[k.to][k.toIn] = ch
			continue
		}
		// All buffering moves to the producer-side proxy; the consumer side
		// is unbuffered so a pump blocked in delivery is exactly "input
		// pending", the watchdog's stall predicate.
		pOut := make(chan Chunk, cap(ch))
		cIn := make(chan Chunk)
		outs[k.from][k.fromOut] = pOut
		outOwned[k.from][k.fromOut] = pOut
		ins[k.to][k.toIn] = cIn
		prod, cons := states[k.from], states[k.to]
		eo := newEdgeObs(policy.Metrics, policy.Clock,
			fmt.Sprintf("%s:%d->%s:%d", prod.name, k.fromOut, cons.name, k.toIn))
		pumps = append(pumps, func() { pump(runCtx, pOut, cIn, prod, cons, eo) })
	}
	g.mu.Unlock()

	var pumpWg sync.WaitGroup
	for _, p := range pumps {
		pumpWg.Add(1)
		go func(p func()) {
			defer pumpWg.Done()
			p()
		}(p)
	}
	sup := &supervisor{policy: policy, states: states}
	var wg sync.WaitGroup
	errCh := make(chan error, len(blocks))
	for _, b := range blocks {
		wg.Add(1)
		go func(b Block) {
			defer wg.Done()
			if err := sup.runBlock(runCtx, b, ins[b], outs[b], outOwned[b]); err != nil {
				errCh <- err
				cancel()
			}
		}(b)
	}
	wg.Wait()
	cancel()
	pumpWg.Wait()
	close(errCh)
	var errs []error
	for err := range errCh {
		errs = append(errs, err)
	}
	if len(errs) > 0 {
		return errors.Join(errs...)
	}
	return ctx.Err()
}

// Send delivers one chunk with cancellation, for use inside Block.Run.
// It returns false when the context ended before delivery.
func Send(ctx context.Context, out chan<- Chunk, c Chunk) bool {
	select {
	case out <- c:
		return true
	case <-ctx.Done():
		return false
	}
}

// Recv receives one chunk with cancellation. ok is false when the stream is
// closed or the context ended.
func Recv(ctx context.Context, in <-chan Chunk) (Chunk, bool) {
	select {
	case c, ok := <-in:
		return c, ok
	case <-ctx.Done():
		return nil, false
	}
}
