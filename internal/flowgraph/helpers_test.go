package flowgraph

import (
	"context"
	"errors"
)

// TransformFunc adapts a chunk transformer into a 1-in/1-out block. The
// function may return a nil chunk to drop input.
type TransformFunc struct {
	BlockName string
	Apply     func(Chunk) (Chunk, error)
}

// Name implements Block.
func (t *TransformFunc) Name() string { return t.BlockName }

// Inputs implements Block.
func (t *TransformFunc) Inputs() int { return 1 }

// Outputs implements Block.
func (t *TransformFunc) Outputs() int { return 1 }

// Run implements Block.
func (t *TransformFunc) Run(ctx context.Context, in []<-chan Chunk, out []chan<- Chunk) error {
	if t.Apply == nil {
		return errors.New("flowgraph: TransformFunc.Apply is nil")
	}
	for {
		c, ok := Recv(ctx, in[0])
		if !ok {
			return ctx.Err()
		}
		o, err := t.Apply(c)
		if err != nil {
			return err
		}
		if o == nil {
			continue
		}
		if !Send(ctx, out[0], o) {
			return ctx.Err()
		}
	}
}

// Fanout duplicates one input stream onto N outputs, copying each chunk so
// downstream blocks own independent data.
type Fanout struct {
	BlockName string
	N         int
}

// Name implements Block.
func (f *Fanout) Name() string { return f.BlockName }

// Inputs implements Block.
func (f *Fanout) Inputs() int { return 1 }

// Outputs implements Block.
func (f *Fanout) Outputs() int { return f.N }

// Run implements Block.
func (f *Fanout) Run(ctx context.Context, in []<-chan Chunk, out []chan<- Chunk) error {
	for {
		c, ok := Recv(ctx, in[0])
		if !ok {
			return ctx.Err()
		}
		for i, o := range out {
			cp := c
			if i > 0 {
				// The copy is the point: each downstream block must own
				// independent data (receiver-owns-chunk contract).
				cp = append(Chunk(nil), c...) //mimonet:alloc-ok
			}
			if !Send(ctx, o, cp) {
				return ctx.Err()
			}
		}
	}
}
