package nn

import (
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
	// recording arena
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
	l.W.Value.XavierInit(r, in, out)
	return l
}

// Params returns the layer's trainable parameters.
func (l *Linear) Params() []*Param { return []*Param{l.W, l.B} }

// Apply computes y = x·W + b for rows input rows into ctx. On a frozen
// arena a weight with a bf16 shadow (ShadowBF16) streams its 2-byte
// encoding through the bf16-input GEMM, which widens panels in its pack
// stage, so no fp32 round-trip buffer of the weights exists on that
// path; a recording arena always reads Value, so training never sees a
// stale shadow.
func (l *Linear) Apply(ctx *Arena, x []float32, rows int) []float32 {
	checkRows(len(x), rows, l.In, "Linear.Apply")
	y := ctx.Take(rows * l.Out)
	if w := l.W.BF16; w != nil && !ctx.recording {
		tensor.MatMulBF16Bias(y, x, w, l.B.Value.Data, rows, l.In, l.Out, false)
		return y
	}
	if ctx.recording {
		l.x, l.rows = x, rows
	}
	tensor.MatMulBias(y, x, l.W.Value.Data, l.B.Value.Data, rows, l.In, l.Out, false)
	return y
}

// Backprop consumes dL/dy of the last recording Apply, accumulates
// dL/dW and dL/db, and writes dL/dx into the caller's (rows × In) dx,
// which must not alias dy; a nil dx skips the input gradient.
func (l *Linear) Backprop(dx, dy []float32) {
	rows := l.rows
	checkRows(len(dy), rows, l.Out, "Linear.Backprop")
	// dW += xᵀ·dy : (in × rows)·(rows × out)
	tensor.MatMulTA(l.W.Grad.Data, l.x, dy, l.In, rows, l.Out, true)
	tensor.ColumnSums(l.B.Grad.Data, dy, rows, l.Out)
	if dx != nil {
		// dx = dy·Wᵀ : W stored (in × out) so this is the TB kernel.
		tensor.MatMulTB(dx, dy, l.W.Value.Data, rows, l.Out, l.In, false)
	}
}
