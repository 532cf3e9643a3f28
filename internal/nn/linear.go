package nn

import (
	"math"

	"repro/internal/rng"
	"repro/internal/tensor"
)

// Linear is a fully-connected layer y = x·W + b with W of shape
// (in × out). The (in × out) storage order means the forward pass is a
// plain row-major GEMM and the two backward GEMMs are the transposed
// kernels from internal/tensor, with no explicit transposition.
type Linear struct {
	In, Out int
	W, B    *Param

	// the input and row count Backprop re-reads, recorded by Apply on a
	// recording arena (apply records the row count alone)
	x    []float32
	rows int
}

// NewLinear constructs a Linear layer with Xavier-uniform weights and
// zero bias, matching the MAE reference initialization.
func NewLinear(name string, in, out int, r *rng.RNG) *Linear {
	l := &Linear{
		In:  in,
		Out: out,
		W:   NewParam(name+".weight", in, out),
		B:   NewParam(name+".bias", out),
	}
	l.B.NoWeightDecay = true
	limit := float32(math.Sqrt(6.0 / float64(in+out)))
	r.FillUniform(l.W.Value, -limit, limit)
	return l
}

// Params returns the layer's trainable parameters.
func (l *Linear) Params() []*Param { return []*Param{l.W, l.B} }

// Apply computes y = x·W + b for rows input rows into a scratch slot of
// ctx, one MatMulBias over the fp32 weights on either kind of arena. A
// recording arena records x, which the caller keeps until Backprop.
func (l *Linear) Apply(ctx *Arena, x []float32, rows int) []float32 {
	y := ctx.Scratch(rows * l.Out)
	l.apply(ctx, y, x, rows)
	if ctx.recording {
		l.x = x
	}
	return y
}

// apply is Apply into the caller's (rows × Out) y, which must not alias
// x, recording the row count only: a composite layer that does not keep
// x hands it to backprop itself.
func (l *Linear) apply(ctx *Arena, y, x []float32, rows int) {
	checkRows(len(x), rows, l.In, "Linear.Apply")
	if ctx.recording {
		l.rows = rows
	}
	tensor.MatMulBias(y, x, l.W.Value, l.B.Value, rows, l.In, l.Out, false)
}

// Backprop consumes dL/dy of the last recording Apply, accumulates
// dL/dW and dL/db, and writes dL/dx into the caller's (rows × In) dx,
// which must not alias dy; a nil dx skips the input gradient.
func (l *Linear) Backprop(dx, dy []float32) { l.backprop(dx, dy, l.x) }

// backprop is Backprop against the caller's x, the forward's input or a
// regeneration of it. x is read only for dW, before dx is written, so
// dx may alias x: a block regenerates a LayerNorm output into the
// buffer that then receives the input gradient.
func (l *Linear) backprop(dx, dy, x []float32) {
	rows := l.rows
	checkRows(len(dy), rows, l.Out, "Linear.Backprop")
	// dW += xᵀ·dy : (in × rows)·(rows × out)
	tensor.MatMulTA(l.W.Grad, x, dy, l.In, rows, l.Out, true)
	tensor.ColumnSums(l.B.Grad, dy, rows, l.Out)
	if dx != nil {
		// dx = dy·Wᵀ : W stored (in × out) so this is the TB kernel.
		tensor.MatMulTB(dx, dy, l.W.Value, rows, l.Out, l.In, false)
	}
}
