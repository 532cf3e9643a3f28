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
	// the forward output, and the input gradient of Backward (backward
	// writes into the caller's memory instead)
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
// dL/dx in a buffer the layer owns, valid until its next Backward.
func (l *Linear) Backward(dy []float32) []float32 {
	l.dx = grow(l.dx, l.rows*l.In)
	l.backward(l.dx, dy)
	return l.dx
}

// backward is Backward writing dL/dx into the caller's (rows × In) dx,
// which must not alias dy; a nil dx skips the input gradient and only
// accumulates the parameter gradients.
func (l *Linear) backward(dx, dy []float32) {
	rows := l.rows
	checkRows(len(dy), rows, l.Out, "Linear.Backward")
	// dW += xᵀ·dy : (in × rows)·(rows × out)
	tensor.MatMulTA(l.W.Grad.Data, l.x, dy, l.In, rows, l.Out, true)
	tensor.ColumnSums(l.B.Grad.Data, dy, rows, l.Out)
	if dx != nil {
		// dx = dy·Wᵀ : W stored (in × out) so this is the TB kernel.
		tensor.MatMulTB(dx, dy, l.W.Value.Data, rows, l.Out, l.In, false)
	}
}
