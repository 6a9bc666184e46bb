package flowgraph

import (
	"context"
	"errors"
	"io"
)

// SourceFunc adapts a generator function into a 0-in/1-out block. The
// function returns chunks until it returns io.EOF (clean end of stream) or
// another error (aborts the graph).
//
//mimonet:testonly-ok test seam: the flowgraph and faults tests feed their graphs from it
type SourceFunc struct {
	BlockName string
	Next      func() (Chunk, error)
}

// Name implements Block.
func (s *SourceFunc) Name() string { return s.BlockName }

// Inputs implements Block.
func (s *SourceFunc) Inputs() int { return 0 }

// Outputs implements Block.
func (s *SourceFunc) Outputs() int { return 1 }

// Run implements Block.
func (s *SourceFunc) Run(ctx context.Context, _ []<-chan Chunk, out []chan<- Chunk) error {
	if s.Next == nil {
		return errors.New("flowgraph: SourceFunc.Next is nil")
	}
	for {
		c, err := s.Next()
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
		if !Send(ctx, out[0], c) {
			return ctx.Err()
		}
	}
}

// SinkFunc adapts a consumer function into a 1-in/0-out block.
//
//mimonet:testonly-ok test seam: the flowgraph and faults tests drain their graphs into it
type SinkFunc struct {
	BlockName string
	Consume   func(Chunk) error
}

// Name implements Block.
func (s *SinkFunc) Name() string { return s.BlockName }

// Inputs implements Block.
func (s *SinkFunc) Inputs() int { return 1 }

// Outputs implements Block.
func (s *SinkFunc) Outputs() int { return 0 }

// Run implements Block.
func (s *SinkFunc) Run(ctx context.Context, in []<-chan Chunk, _ []chan<- Chunk) error {
	if s.Consume == nil {
		return errors.New("flowgraph: SinkFunc.Consume is nil")
	}
	for {
		c, ok := Recv(ctx, in[0])
		if !ok {
			return ctx.Err()
		}
		if err := s.Consume(c); err != nil {
			return err
		}
	}
}
