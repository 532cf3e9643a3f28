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

	// cached forward input and row count for the backward pass
	x    []float32
	rows int
	// reusable output and input-gradient buffers
	y, dx []float32
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

// Forward computes y = x·W + b for rows input rows. The returned slice
// is owned by the layer and valid until the next Forward call.
func (l *Linear) Forward(x []float32, rows int) []float32 {
	checkRows(len(x), rows, l.In, "Linear.Forward")
	l.x = x
	l.rows = rows
	l.y = grow(l.y, rows*l.Out)
	tensor.MatMulBias(l.y, x, l.W.Value.Data, l.B.Value.Data, rows, l.In, l.Out, false)
	return l.y
}

// Backward consumes dL/dy, accumulates dL/dW and dL/db, and returns
// dL/dx. The returned slice is owned by the layer.
func (l *Linear) Backward(dy []float32) []float32 {
	rows := l.rows
	checkRows(len(dy), rows, l.Out, "Linear.Backward")
	// dW += xᵀ·dy : (in × rows)·(rows × out)
	tensor.MatMulTA(l.W.Grad.Data, l.x, dy, l.In, rows, l.Out, true)
	tensor.ColumnSums(l.B.Grad.Data, dy, rows, l.Out)
	// dx = dy·Wᵀ : W stored (in × out) so this is the TB kernel.
	l.dx = grow(l.dx, rows*l.In)
	tensor.MatMulTB(l.dx, dy, l.W.Value.Data, rows, l.Out, l.In, false)
	return l.dx
}
