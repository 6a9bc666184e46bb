package flowgraph

import (
	"context"
	"errors"
	"io"
	"sync/atomic"
	"testing"
	"time"
)

// mkSource emits n chunks of the given value.
func mkSource(name string, n int, val complex128) *SourceFunc {
	count := 0
	return &SourceFunc{BlockName: name, Next: func() (Chunk, error) {
		if count >= n {
			return nil, io.EOF
		}
		count++
		return Chunk{val, val}, nil
	}}
}

func TestLinearPipeline(t *testing.T) {
	g := New()
	src := mkSource("src", 10, 1)
	doubler := &TransformFunc{BlockName: "x2", Apply: func(c Chunk) (Chunk, error) {
		for i := range c {
			c[i] *= 2
		}
		return c, nil
	}}
	var got int64
	sink := &SinkFunc{BlockName: "sink", Consume: func(c Chunk) error {
		for _, v := range c {
			if v != 2 {
				return errors.New("wrong value")
			}
			atomic.AddInt64(&got, 1)
		}
		return nil
	}}
	for _, b := range []Block{src, doubler, sink} {
		if err := g.Add(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.Connect(src, 0, doubler, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.Connect(doubler, 0, sink, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got != 20 {
		t.Errorf("sink saw %d samples, want 20", got)
	}
}

func TestFanout(t *testing.T) {
	g := New()
	src := mkSource("src", 5, 3)
	fan := &Fanout{BlockName: "fan", N: 2}
	var a, b int64
	sinkA := &SinkFunc{BlockName: "a", Consume: func(c Chunk) error { atomic.AddInt64(&a, int64(len(c))); return nil }}
	sinkB := &SinkFunc{BlockName: "b", Consume: func(c Chunk) error { atomic.AddInt64(&b, int64(len(c))); return nil }}
	for _, blk := range []Block{src, fan, sinkA, sinkB} {
		if err := g.Add(blk); err != nil {
			t.Fatal(err)
		}
	}
	g.Connect(src, 0, fan, 0)
	g.Connect(fan, 0, sinkA, 0)
	g.Connect(fan, 1, sinkB, 0)
	if err := g.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if a != 10 || b != 10 {
		t.Errorf("fanout delivered %d, %d; want 10 each", a, b)
	}
}

func TestErrorPropagatesAndCancels(t *testing.T) {
	g := New()
	src := &SourceFunc{BlockName: "src", Next: func() (Chunk, error) {
		return Chunk{1}, nil // infinite
	}}
	boom := errors.New("boom")
	n := 0
	sink := &SinkFunc{BlockName: "sink", Consume: func(c Chunk) error {
		n++
		if n > 3 {
			return boom
		}
		return nil
	}}
	g.Add(src)
	g.Add(sink)
	g.Connect(src, 0, sink, 0)
	done := make(chan error, 1)
	go func() { done <- g.Run(context.Background()) }()
	select {
	case err := <-done:
		if !errors.Is(err, boom) {
			t.Errorf("Run returned %v, want boom", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("graph did not shut down after block error")
	}
}

func TestExternalCancellation(t *testing.T) {
	g := New()
	src := &SourceFunc{BlockName: "src", Next: func() (Chunk, error) { return Chunk{1}, nil }}
	sink := &SinkFunc{BlockName: "sink", Consume: func(Chunk) error { return nil }}
	g.Add(src)
	g.Add(sink)
	g.Connect(src, 0, sink, 0)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- g.Run(ctx) }()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("Run returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("graph did not stop on cancellation")
	}
}

func TestValidation(t *testing.T) {
	g := New()
	src := mkSource("src", 1, 1)
	sink := &SinkFunc{BlockName: "sink", Consume: func(Chunk) error { return nil }}
	if err := g.Add(nil); err == nil {
		t.Error("nil block should fail")
	}
	g.Add(src)
	if err := g.Add(src); err == nil {
		t.Error("duplicate Add should fail")
	}
	if err := g.Connect(src, 0, sink, 0); err == nil {
		t.Error("connecting unadded block should fail")
	}
	g.Add(sink)
	if err := g.Connect(src, 1, sink, 0); err == nil {
		t.Error("bad output port should fail")
	}
	if err := g.Connect(src, 0, sink, 3); err == nil {
		t.Error("bad input port should fail")
	}
	if err := g.Connect(src, 0, sink, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.Connect(src, 0, sink, 0); err == nil {
		t.Error("double connection should fail")
	}
}

func TestUnconnectedPortRejected(t *testing.T) {
	g := New()
	src := mkSource("src", 1, 1)
	g.Add(src)
	if err := g.Run(context.Background()); err == nil {
		t.Error("unconnected output should fail Run")
	}
}

func TestRunTwiceRejected(t *testing.T) {
	g := New()
	src := mkSource("src", 1, 1)
	sink := &SinkFunc{BlockName: "s", Consume: func(Chunk) error { return nil }}
	g.Add(src)
	g.Add(sink)
	g.Connect(src, 0, sink, 0)
	if err := g.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := g.Run(context.Background()); err == nil {
		t.Error("second Run should fail")
	}
}

func TestNilCallbacksError(t *testing.T) {
	g := New()
	src := &SourceFunc{BlockName: "src"}
	sink := &SinkFunc{BlockName: "sink", Consume: func(Chunk) error { return nil }}
	g.Add(src)
	g.Add(sink)
	g.Connect(src, 0, sink, 0)
	if err := g.Run(context.Background()); err == nil {
		t.Error("nil Next should fail the graph")
	}
}

func TestTransformDrop(t *testing.T) {
	g := New()
	src := mkSource("src", 4, 1)
	i := 0
	filter := &TransformFunc{BlockName: "drop-odd", Apply: func(c Chunk) (Chunk, error) {
		i++
		if i%2 == 1 {
			return nil, nil
		}
		return c, nil
	}}
	var got int
	sink := &SinkFunc{BlockName: "sink", Consume: func(c Chunk) error { got++; return nil }}
	g.Add(src)
	g.Add(filter)
	g.Add(sink)
	g.Connect(src, 0, filter, 0)
	g.Connect(filter, 0, sink, 0)
	if err := g.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got != 2 {
		t.Errorf("sink saw %d chunks, want 2", got)
	}
}

func BenchmarkPipelineThroughput(b *testing.B) {
	g := New()
	n := b.N
	count := 0
	chunk := make(Chunk, 1024)
	src := &SourceFunc{BlockName: "src", Next: func() (Chunk, error) {
		if count >= n {
			return nil, io.EOF
		}
		count++
		return chunk, nil
	}}
	pass := &TransformFunc{BlockName: "pass", Apply: func(c Chunk) (Chunk, error) { return c, nil }}
	sink := &SinkFunc{BlockName: "sink", Consume: func(Chunk) error { return nil }}
	g.Add(src)
	g.Add(pass)
	g.Add(sink)
	g.Connect(src, 0, pass, 0)
	g.Connect(pass, 0, sink, 0)
	b.SetBytes(1024 * 16)
	b.ResetTimer()
	if err := g.Run(context.Background()); err != nil {
		b.Fatal(err)
	}
}

func TestHelperNames(t *testing.T) {
	if (&SinkFunc{BlockName: "s"}).Name() != "s" {
		t.Error("SinkFunc name")
	}
	if (&TransformFunc{BlockName: "t"}).Name() != "t" {
		t.Error("TransformFunc name")
	}
	if (&Fanout{BlockName: "f", N: 2}).Name() != "f" {
		t.Error("Fanout name")
	}
	nilT := &TransformFunc{BlockName: "nil"}
	g := New()
	src := mkSource("src", 1, 1)
	sink := &SinkFunc{BlockName: "sink", Consume: func(Chunk) error { return nil }}
	g.Add(src)
	g.Add(nilT)
	g.Add(sink)
	g.Connect(src, 0, nilT, 0)
	g.Connect(nilT, 0, sink, 0)
	if err := g.Run(context.Background()); err == nil {
		t.Error("nil Apply should fail the graph")
	}
}
