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

	rows   int
	xhat   []float32 // cached normalized input
	invStd []float32 // cached 1/σ per row
	y, dx  []float32
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
	ln.Gamma.Value.Fill(1)
	return ln
}

// Params returns γ and β.
func (ln *LayerNorm) Params() []*Param { return []*Param{ln.Gamma, ln.Beta} }

// Forward normalizes each of the rows rows of x.
func (ln *LayerNorm) Forward(x []float32, rows int) []float32 {
	d := ln.Dim
	checkRows(len(x), rows, d, "LayerNorm.Forward")
	ln.rows = rows
	ln.xhat = grow(ln.xhat, rows*d)
	ln.invStd = grow(ln.invStd, rows)
	ln.y = grow(ln.y, rows*d)
	tensor.LayerNorm(ln.y, ln.xhat, ln.invStd, x, ln.Gamma.Value.Data, ln.Beta.Value.Data, rows, d, ln.Eps)
	return ln.y
}

// Backward computes the LayerNorm gradient from the x̂ and 1/σ cached
// by Forward (tensor.LayerNormBackward), accumulating dγ and dβ, and
// returns dL/dx in a buffer the layer owns, valid until its next
// Backward.
func (ln *LayerNorm) Backward(dy []float32) []float32 {
	ln.dx = grow(ln.dx, ln.rows*ln.Dim)
	ln.backward(ln.dx, dy)
	return ln.dx
}

// backward is Backward writing dL/dx into the caller's dx, which must
// not alias dy.
func (ln *LayerNorm) backward(dx, dy []float32) {
	d := ln.Dim
	rows := ln.rows
	checkRows(len(dy), rows, d, "LayerNorm.Backward")
	tensor.LayerNormParamGrads(ln.Gamma.Grad.Data, ln.Beta.Grad.Data, dy, ln.xhat, rows, d)
	tensor.LayerNormBackward(dx, dy, ln.xhat, ln.invStd, ln.Gamma.Value.Data, rows, d)
}
