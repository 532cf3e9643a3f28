package nn

import (
	"math"

	"repro/internal/parallel"
)

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

// Release drops the normalization caches (x̂, 1/σ) and scratch.
func (ln *LayerNorm) Release() {
	ln.rows = 0
	ln.xhat, ln.invStd, ln.y, ln.dx = nil, nil, nil, nil
}

// Forward normalizes each of the rows rows of x.
func (ln *LayerNorm) Forward(x []float32, rows int) []float32 {
	d := ln.Dim
	checkRows(len(x), rows, d, "LayerNorm.Forward")
	ln.rows = rows
	ln.xhat = grow(ln.xhat, rows*d)
	ln.invStd = grow(ln.invStd, rows)
	ln.y = grow(ln.y, rows*d)
	g := ln.Gamma.Value.Data
	b := ln.Beta.Value.Data
	parallel.RangeGrain(rows, 1+parallel.MinGrain/(d+1), func(lo, hi int) {
		for r := lo; r < hi; r++ {
			xi := x[r*d : (r+1)*d]
			var mean float64
			for _, v := range xi {
				mean += float64(v)
			}
			mean /= float64(d)
			var variance float64
			for _, v := range xi {
				dv := float64(v) - mean
				variance += dv * dv
			}
			variance /= float64(d)
			inv := float32(1 / math.Sqrt(variance+float64(ln.Eps)))
			ln.invStd[r] = inv
			xh := ln.xhat[r*d : (r+1)*d]
			yi := ln.y[r*d : (r+1)*d]
			m := float32(mean)
			for j, v := range xi {
				h := (v - m) * inv
				xh[j] = h
				yi[j] = g[j]*h + b[j]
			}
		}
	})
	return ln.y
}

// Backward computes the LayerNorm gradient. Using x̂ and 1/σ cached by
// Forward:
//
//	dx = (1/σ)/D · (D·dx̂ − Σdx̂ − x̂·Σ(dx̂·x̂)),  dx̂ = dy·γ
func (ln *LayerNorm) Backward(dy []float32) []float32 {
	d := ln.Dim
	rows := ln.rows
	checkRows(len(dy), rows, d, "LayerNorm.Backward")
	ln.dx = grow(ln.dx, rows*d)
	g := ln.Gamma.Value.Data

	// Parameter grads are column reductions: each worker owns a feature
	// range and adds the rows in order (the serial summation order, no
	// atomics).
	parallel.RangeGrain(d, colGrain(rows), func(lo, hi int) {
		dg := ln.Gamma.Grad.Data[lo:hi]
		db := ln.Beta.Grad.Data[lo:hi]
		for r := 0; r < rows; r++ {
			dyr := dy[r*d+lo : r*d+hi]
			xh := ln.xhat[r*d+lo : r*d+hi]
			for j := range dyr {
				dg[j] += dyr[j] * xh[j]
				db[j] += dyr[j]
			}
		}
	})

	parallel.RangeGrain(rows, 1+parallel.MinGrain/(d+1), func(lo, hi int) {
		for r := lo; r < hi; r++ {
			dyr := dy[r*d : (r+1)*d]
			xh := ln.xhat[r*d : (r+1)*d]
			dxr := ln.dx[r*d : (r+1)*d]
			var sumDxh, sumDxhXh float64
			for j := range dyr {
				dxh := float64(dyr[j]) * float64(g[j])
				sumDxh += dxh
				sumDxhXh += dxh * float64(xh[j])
			}
			invN := 1 / float64(d)
			inv := float64(ln.invStd[r])
			for j := range dyr {
				dxh := float64(dyr[j]) * float64(g[j])
				dxr[j] = float32(inv * (dxh - invN*sumDxh - float64(xh[j])*invN*sumDxhXh))
			}
		}
	})
	return ln.dx
}
