package flowgraph

import (
	"context"
	"errors"
	"io"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// restartableTransform is a 1-in/1-out pass-through that can be scripted to
// panic, fail, or stall once, and opts into supervisor restarts.
type restartableTransform struct {
	name       string
	panicAt    int // chunk index to panic on (-1 = never)
	failAt     int // chunk index to return a recoverable error on (-1 = never)
	stallAt    int // chunk index to stall on (-1 = never)
	fired      atomic.Bool
	seen       atomic.Int64
	restarting bool
}

func (r *restartableTransform) Name() string      { return r.name }
func (r *restartableTransform) Inputs() int       { return 1 }
func (r *restartableTransform) Outputs() int      { return 1 }
func (r *restartableTransform) Restartable() bool { return r.restarting }

func (r *restartableTransform) Run(ctx context.Context, in []<-chan Chunk, out []chan<- Chunk) error {
	for {
		c, ok := Recv(ctx, in[0])
		if !ok {
			return ctx.Err()
		}
		n := int(r.seen.Add(1)) - 1
		if n == r.panicAt && r.fired.CompareAndSwap(false, true) {
			panic("scripted panic")
		}
		if n == r.failAt && r.fired.CompareAndSwap(false, true) {
			return Recoverable(errors.New("scripted failure"))
		}
		if n == r.stallAt && r.fired.CompareAndSwap(false, true) {
			<-ctx.Done()
			return ctx.Err()
		}
		if !Send(ctx, out[0], c) {
			return ctx.Err()
		}
	}
}

func countingSink(got *atomic.Int64) *SinkFunc {
	return &SinkFunc{BlockName: "sink", Consume: func(Chunk) error {
		got.Add(1)
		return nil
	}}
}

func buildChain(t *testing.T, g *Graph, chain ...Block) {
	t.Helper()
	for _, b := range chain {
		if err := g.Add(b); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i+1 < len(chain); i++ {
		if err := g.Connect(chain[i], 0, chain[i+1], 0); err != nil {
			t.Fatal(err)
		}
	}
}

// A panicking block must not wedge the graph: its outputs close, downstream
// drains, and Run reports a typed KindPanic BlockError.
func TestPanicClosesOutputsAndCascades(t *testing.T) {
	g := New()
	tr := &restartableTransform{name: "boom", panicAt: 3, failAt: -1, stallAt: -1}
	var got atomic.Int64
	buildChain(t, g, mkSource("src", 10, 1), tr, countingSink(&got))
	done := make(chan error, 1)
	go func() { done <- g.Run(context.Background()) }()
	select {
	case err := <-done:
		be, ok := AsBlockError(err)
		if !ok {
			t.Fatalf("Run returned %v, want a BlockError", err)
		}
		if be.Kind != KindPanic || be.Block != "boom" {
			t.Errorf("got %v/%s, want KindPanic on boom", be.Kind, be.Block)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("graph deadlocked after block panic")
	}
}

// Multiple simultaneous block failures must all be reported, not just the
// first drained from the error channel.
func TestAllBlockErrorsJoined(t *testing.T) {
	g := New()
	failA := errors.New("fail-a")
	failB := errors.New("fail-b")
	srcA := &SourceFunc{BlockName: "srcA", Next: func() (Chunk, error) { return nil, failA }}
	srcB := &SourceFunc{BlockName: "srcB", Next: func() (Chunk, error) { return nil, failB }}
	sink := &SinkFunc{BlockName: "sink2", Consume: func(Chunk) error { return nil }}
	sink2in := &twoInSink{inner: sink}
	for _, b := range []Block{srcA, srcB, sink2in} {
		if err := g.Add(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.Connect(srcA, 0, sink2in, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.Connect(srcB, 0, sink2in, 1); err != nil {
		t.Fatal(err)
	}
	err := g.Run(context.Background())
	if !errors.Is(err, failA) || !errors.Is(err, failB) {
		t.Errorf("joined error %v should contain both fail-a and fail-b", err)
	}
}

// twoInSink drains two input streams.
type twoInSink struct{ inner *SinkFunc }

func (s *twoInSink) Name() string { return "two-in" }
func (s *twoInSink) Inputs() int  { return 2 }
func (s *twoInSink) Outputs() int { return 0 }
func (s *twoInSink) Run(ctx context.Context, in []<-chan Chunk, _ []chan<- Chunk) error {
	for {
		done := 0
		for i := range in {
			if _, ok := Recv(ctx, in[i]); !ok {
				done++
			}
		}
		if done == len(in) {
			return ctx.Err()
		}
	}
}

// A restartable block that panics once is restarted with backoff and the
// stream completes; health counters record the panic and the restart.
func TestRestartAfterPanic(t *testing.T) {
	g := New()
	tr := &restartableTransform{name: "flaky", panicAt: 2, failAt: -1, stallAt: -1, restarting: true}
	var got atomic.Int64
	buildChain(t, g, mkSource("src", 8, 1), tr, countingSink(&got))
	if err := g.SetPolicy(Policy{MaxRestarts: 2, BackoffBase: time.Millisecond, TrackHealth: true}); err != nil {
		t.Fatal(err)
	}
	if err := g.Run(context.Background()); err != nil {
		t.Fatalf("Run failed despite restart budget: %v", err)
	}
	// The chunk consumed by the panicking attempt is lost; the rest arrive.
	if n := got.Load(); n != 7 {
		t.Errorf("sink saw %d chunks, want 7 (one lost to the panic)", n)
	}
	h := g.Health()["flaky"]
	if h.Panics != 1 || h.Restarts != 1 {
		t.Errorf("health = %+v, want 1 panic and 1 restart", h)
	}
}

// A recoverable error consumes restart budget; a fatal one would not retry.
func TestRestartAfterRecoverableError(t *testing.T) {
	g := New()
	tr := &restartableTransform{name: "flaky2", panicAt: -1, failAt: 1, stallAt: -1, restarting: true}
	var got atomic.Int64
	buildChain(t, g, mkSource("src", 5, 1), tr, countingSink(&got))
	if err := g.SetPolicy(Policy{MaxRestarts: 1, BackoffBase: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	if err := g.Run(context.Background()); err != nil {
		t.Fatalf("Run failed: %v", err)
	}
	if n := got.Load(); n != 4 {
		t.Errorf("sink saw %d chunks, want 4", n)
	}
}

// Restart budget exhaustion surfaces the last typed error.
func TestRestartBudgetExhausted(t *testing.T) {
	g := New()
	always := &TransformFunc{BlockName: "dies", Apply: func(Chunk) (Chunk, error) {
		return nil, errors.New("permanent")
	}}
	var got atomic.Int64
	buildChain(t, g, mkSource("src", 5, 1), always, countingSink(&got))
	err := g.Run(context.Background())
	be, ok := AsBlockError(err)
	if !ok || be.Kind != KindFatal {
		t.Errorf("got %v, want fatal BlockError", err)
	}
}

// The watchdog detects a cancellable stall and reports KindStall.
func TestWatchdogDetectsStall(t *testing.T) {
	g := New()
	tr := &restartableTransform{name: "wedge", panicAt: -1, failAt: -1, stallAt: 1}
	var got atomic.Int64
	buildChain(t, g, mkSource("src", 6, 1), tr, countingSink(&got))
	if err := g.SetPolicy(Policy{StallTimeout: 50 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- g.Run(context.Background()) }()
	select {
	case err := <-done:
		be, ok := AsBlockError(err)
		if !ok || be.Kind != KindStall || !errors.Is(err, ErrStall) {
			t.Errorf("got %v, want KindStall wrapping ErrStall", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("watchdog never fired")
	}
	if h := g.Health()["wedge"]; h.Stalls != 1 {
		t.Errorf("health = %+v, want 1 stall", h)
	}
}

// A restartable stalled block is cancelled, restarted, and the stream
// completes minus the chunk lost to the stalled attempt.
func TestStallRestart(t *testing.T) {
	g := New()
	tr := &restartableTransform{name: "wedge2", panicAt: -1, failAt: -1, stallAt: 1, restarting: true}
	var got atomic.Int64
	buildChain(t, g, mkSource("src", 6, 1), tr, countingSink(&got))
	if err := g.SetPolicy(Policy{
		MaxRestarts: 1, BackoffBase: time.Millisecond,
		StallTimeout: 50 * time.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}
	if err := g.Run(context.Background()); err != nil {
		t.Fatalf("Run failed despite stall restart: %v", err)
	}
	if n := got.Load(); n != 5 {
		t.Errorf("sink saw %d chunks, want 5 (one lost to the stall)", n)
	}
	h := g.Health()["wedge2"]
	if h.Stalls != 1 || h.Restarts != 1 {
		t.Errorf("health = %+v, want 1 stall and 1 restart", h)
	}
}

// Regression: a graph whose sink stops reading must unwind cleanly on
// context cancel with no leaked goroutines.
func TestCancellationLeaksNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	g := New()
	src := &SourceFunc{BlockName: "src", Next: func() (Chunk, error) { return Chunk{1}, nil }}
	// Wedge the sink after a few chunks on a gate only the test releases, so
	// the whole pipeline backs up before the external cancel arrives.
	n := 0
	gate := make(chan struct{})
	stuck := &SinkFunc{BlockName: "stuck", Consume: func(Chunk) error {
		n++
		if n > 2 {
			<-gate
		}
		return nil
	}}
	buildChain(t, g, src, stuck)
	if err := g.SetPolicy(Policy{TrackHealth: true}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- g.Run(ctx) }()
	time.Sleep(30 * time.Millisecond)
	cancel()
	close(gate) // the stalled Consume returns; blocks then see ctx.Done
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("Run returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("graph did not unwind on cancel")
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
}

// Health counters reflect chunk traffic when instrumentation is on.
func TestHealthCountersTrackChunks(t *testing.T) {
	g := New()
	pass := &TransformFunc{BlockName: "pass", Apply: func(c Chunk) (Chunk, error) { return c, nil }}
	var got atomic.Int64
	buildChain(t, g, mkSource("src", 10, 1), pass, countingSink(&got))
	if err := g.SetPolicy(Policy{TrackHealth: true}); err != nil {
		t.Fatal(err)
	}
	if err := g.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	h := g.Health()
	if h["src"].ChunksOut != 10 {
		t.Errorf("src out = %d, want 10", h["src"].ChunksOut)
	}
	if h["pass"].ChunksIn != 10 || h["pass"].ChunksOut != 10 {
		t.Errorf("pass = %+v, want 10 in / 10 out", h["pass"])
	}
	if h["sink"].ChunksIn != 10 {
		t.Errorf("sink in = %d, want 10", h["sink"].ChunksIn)
	}
	if got.Load() != 10 {
		t.Errorf("sink consumed %d chunks, want 10", got.Load())
	}
}

// SetPolicy after Run must fail; unknown helpers still behave.
func TestSetPolicyAfterStartRejected(t *testing.T) {
	g := New()
	var got atomic.Int64
	buildChain(t, g, mkSource("src", 1, 1), countingSink(&got))
	if err := g.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := g.SetPolicy(Policy{}); err == nil {
		t.Error("SetPolicy after Run should fail")
	}
}

// Recoverable / IsRecoverable round-trip and nil handling.
func TestRecoverableMarker(t *testing.T) {
	if Recoverable(nil) != nil {
		t.Error("Recoverable(nil) should be nil")
	}
	base := errors.New("x")
	r := Recoverable(base)
	if !IsRecoverable(r) || !errors.Is(r, base) {
		t.Error("marker should be detectable and transparent")
	}
	if IsRecoverable(base) {
		t.Error("unmarked error should not be recoverable")
	}
	if IsRecoverable(io.EOF) {
		t.Error("io.EOF should not be recoverable")
	}
}

// Kind strings are stable (they appear in operator-facing logs).
func TestErrorKindStrings(t *testing.T) {
	want := map[ErrorKind]string{KindFatal: "fatal", KindRecoverable: "recoverable", KindPanic: "panic", KindStall: "stall"}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), s)
		}
	}
	if (ErrorKind(99)).String() == "" {
		t.Error("unknown kind should still print")
	}
}
