package nn

import "repro/internal/tensor"

// LayerNorm normalizes each row of the input to zero mean and unit
// variance, then applies a learned per-feature affine transform
// y = γ·x̂ + β. Epsilon follows the transformer default of 1e-6.
type LayerNorm struct {
	Dim   int
	Gamma *Param
	Beta  *Param
	Eps   float32

	// what Backprop re-reads, recorded by Apply on a recording arena: the
	// row count, the normalized input and 1/σ per row
	rows         int
	xhat, invStd []float32

	fwdShim *Arena
}

// NewLayerNorm constructs a LayerNorm with γ=1, β=0.
func NewLayerNorm(name string, dim int) *LayerNorm {
	ln := &LayerNorm{
		Dim:   dim,
		Gamma: NewParam(name+".gamma", dim),
		Beta:  NewParam(name+".beta", dim),
		Eps:   1e-6,
	}
	ln.Gamma.NoWeightDecay = true
	ln.Beta.NoWeightDecay = true
	for i := range ln.Gamma.Value {
		ln.Gamma.Value[i] = 1
	}
	return ln
}

// Params returns γ and β.
func (ln *LayerNorm) Params() []*Param { return []*Param{ln.Gamma, ln.Beta} }

// Apply normalizes each of the rows rows of x into a scratch slot of
// ctx. A recording arena also keeps x̂ and 1/σ, which the same kernel
// call fills.
func (ln *LayerNorm) Apply(ctx *Arena, x []float32, rows int) []float32 {
	y := ctx.Scratch(rows * ln.Dim)
	ln.apply(ctx, y, x, rows)
	return y
}

// apply is Apply into the caller's (rows × Dim) y.
func (ln *LayerNorm) apply(ctx *Arena, y, x []float32, rows int) {
	d := ln.Dim
	checkRows(len(x), rows, d, "LayerNorm.Apply")
	var xhat, invStd []float32
	if ctx.recording {
		xhat, invStd = ctx.Take(rows*d), ctx.Take(rows)
		ln.rows, ln.xhat, ln.invStd = rows, xhat, invStd
	}
	tensor.LayerNorm(y, xhat, invStd, x, ln.Gamma.Value, ln.Beta.Value, rows, d, ln.Eps)
}

// output regenerates the last recording Apply's output y = γ·x̂ + β
// from the kept x̂ into the caller's y (tensor.LayerNormAffine, the
// forward kernel's own arithmetic): bitwise what Apply wrote, so a
// block keeps x̂ instead of y.
func (ln *LayerNorm) output(y []float32) {
	tensor.LayerNormAffine(y, ln.xhat, ln.Gamma.Value, ln.Beta.Value, ln.rows, ln.Dim)
}

// Backprop computes the LayerNorm gradient from the recorded x̂ and 1/σ
// (tensor.LayerNormBackward), accumulating dγ and dβ, and writes dL/dx
// into the caller's dx, which must not alias dy.
func (ln *LayerNorm) Backprop(dx, dy []float32) {
	d := ln.Dim
	rows := ln.rows
	checkRows(len(dy), rows, d, "LayerNorm.Backprop")
	tensor.LayerNormParamGrads(ln.Gamma.Grad, ln.Beta.Grad, dy, ln.xhat, rows, d)
	tensor.LayerNormBackward(dx, dy, ln.xhat, ln.invStd, ln.Gamma.Value, rows, d)
}
