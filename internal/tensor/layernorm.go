package tensor

import (
	"fmt"
	"math"

	"repro/internal/parallel"
)

// LayerNorm kernels, part of the elementwise family (see gelu.go for
// the family's two rules). Every row reduction runs as eight float32
// lane sums — lane l takes the elements j ≡ l (mod 8) in order — that
// are folded in one fixed tree, ((s0+s4)+(s2+s6)) + ((s1+s5)+(s3+s7)),
// so a row's result is the same bits wherever parallel.RangeGrain
// cuts the rows and whichever build computes it: on amd64 with AVX2
// rows whose width is a multiple of 8 run in assembly
// (layernorm_amd64.s, no FMA contraction), every other case runs the
// scalar lanes below, and the two agree bitwise. The dγ/dβ reductions
// run down the columns and keep the serial row order per column.

// LayerNorm normalizes each of the rows rows of x (rows×d, row-major)
// to zero mean and unit variance and applies the affine transform
// y = γ·x̂ + β. xhat (rows×d) and invStd (rows) receive the
// normalized input and 1/σ per row for LayerNormBackward; both may be
// nil (inference), which changes no output bit.
func LayerNorm(y, xhat, invStd, x, gamma, beta []float32, rows, d int, eps float32) {
	if rows < 0 || d <= 0 {
		panic(fmt.Sprintf("tensor: LayerNorm invalid shape rows=%d d=%d", rows, d))
	}
	if len(y) < rows*d || len(x) < rows*d || len(gamma) < d || len(beta) < d ||
		(xhat != nil && len(xhat) < rows*d) || (invStd != nil && len(invStd) < rows) {
		panic("tensor: LayerNorm buffer too small")
	}
	parallel.RangeGrain(rows, 1+parallel.MinGrain/(d+1), func(lo, hi int) {
		var xh, is []float32
		if xhat != nil {
			xh = xhat[lo*d : hi*d]
		}
		if invStd != nil {
			is = invStd[lo:hi]
		}
		layerNormRows(y[lo*d:hi*d], xh, is, x[lo*d:hi*d], gamma[:d], beta[:d], hi-lo, d, eps)
	})
}

// LayerNormAffine writes y = γ·x̂ + β over rows rows of d from the x̂
// LayerNorm cached: the forward's last step, the same rounded product
// and sum per element, so y is bitwise the y that LayerNorm wrote. A
// backward that needs the normalized output regenerates it this way
// instead of keeping it.
func LayerNormAffine(y, xhat, gamma, beta []float32, rows, d int) {
	if rows < 0 || d <= 0 {
		panic(fmt.Sprintf("tensor: LayerNormAffine invalid shape rows=%d d=%d", rows, d))
	}
	if len(y) < rows*d || len(xhat) < rows*d || len(gamma) < d || len(beta) < d {
		panic("tensor: LayerNormAffine buffer too small")
	}
	parallel.RangeGrain(rows, 1+parallel.MinGrain/(d+1), func(lo, hi int) {
		layerNormAffineRows(y[lo*d:hi*d], xhat[lo*d:hi*d], gamma[:d], beta[:d], hi-lo, d)
	})
}

// LayerNormBackward computes the input gradient from the x̂ and 1/σ
// LayerNorm cached:
//
//	dx = (1/σ) · (dx̂ − Σdx̂/D − x̂·Σ(dx̂·x̂)/D),  dx̂ = dy·γ
func LayerNormBackward(dx, dy, xhat, invStd, gamma []float32, rows, d int) {
	if rows < 0 || d <= 0 {
		panic(fmt.Sprintf("tensor: LayerNormBackward invalid shape rows=%d d=%d", rows, d))
	}
	if len(dx) < rows*d || len(dy) < rows*d || len(xhat) < rows*d || len(invStd) < rows || len(gamma) < d {
		panic("tensor: LayerNormBackward buffer too small")
	}
	parallel.RangeGrain(rows, 1+parallel.MinGrain/(d+1), func(lo, hi int) {
		layerNormBwdRows(dx[lo*d:hi*d], dy[lo*d:hi*d], xhat[lo*d:hi*d], invStd[lo:hi], gamma[:d], hi-lo, d)
	})
}

// LayerNormParamGrads accumulates the parameter gradients
// dγ[j] += Σ_r dy[r][j]·x̂[r][j] and dβ[j] += Σ_r dy[r][j]. Each
// worker owns a column range and adds the rows in order, so every
// column sees exactly the serial loop's summation order.
func LayerNormParamGrads(dgamma, dbeta, dy, xhat []float32, rows, d int) {
	if rows < 0 || d <= 0 {
		panic(fmt.Sprintf("tensor: LayerNormParamGrads invalid shape rows=%d d=%d", rows, d))
	}
	if len(dgamma) < d || len(dbeta) < d || len(dy) < rows*d || len(xhat) < rows*d {
		panic("tensor: LayerNormParamGrads buffer too small")
	}
	if rows == 0 {
		return
	}
	parallel.RangeGrain(d, colGrain(rows), func(lo, hi int) {
		layerNormColSums(dgamma[lo:hi], dbeta[lo:hi], dy[lo:], xhat[lo:], rows, d)
	})
}

// ColumnSums accumulates the column sums of the row-major (rows × d)
// matrix x into dst: dst[j] += Σ_r x[r][j] — a bias gradient. Like
// LayerNormParamGrads, each worker owns a column range and adds the
// rows in order, so every column is bitwise the serial loop's sum at
// any worker count.
func ColumnSums(dst, x []float32, rows, d int) {
	if rows < 0 || d <= 0 {
		panic(fmt.Sprintf("tensor: ColumnSums invalid shape rows=%d d=%d", rows, d))
	}
	if len(dst) < d || len(x) < rows*d {
		panic("tensor: ColumnSums buffer too small")
	}
	if rows == 0 {
		return
	}
	parallel.RangeGrain(d, colGrain(rows), func(lo, hi int) {
		colSums(dst[lo:hi], x[lo:], rows, d)
	})
}

// colGrain is the parallel grain, in columns, of a column reduction
// over rows rows: at least a cache line of accumulators per worker so
// neighbours do not share one.
func colGrain(rows int) int { return 16 + parallel.MinGrain/(rows+1) }

// laneSum folds eight lane sums in the kernels' fixed order.
func laneSum(s *[8]float32) float32 {
	return ((s[0] + s[4]) + (s[2] + s[6])) + ((s[1] + s[5]) + (s[3] + s[7]))
}

// layerNormRowsGo, layerNormAffineRowsGo, layerNormBwdRowsGo,
// layerNormColSumsGo and colSumsGo are the scalar lanes — the reference the assembly is held to bit for bit.
// Every product is rounded explicitly (float32(a*b)) so compilers that
// fuse x*y+z cannot.
func layerNormRowsGo(y, xhat, invStd, x, g, b []float32, rows, d int, eps float32) {
	n := float32(d)
	for r := 0; r < rows; r++ {
		xi := x[r*d : (r+1)*d]
		var s [8]float32
		for j, v := range xi {
			s[j&7] += v
		}
		mean := laneSum(&s) / n
		s = [8]float32{}
		for j, v := range xi {
			dv := v - mean
			s[j&7] += float32(dv * dv)
		}
		inv := 1 / float32(math.Sqrt(float64(laneSum(&s)/n+eps)))
		if invStd != nil {
			invStd[r] = inv
		}
		yi := y[r*d : (r+1)*d]
		for j, v := range xi {
			h := float32((v - mean) * inv)
			if xhat != nil {
				xhat[r*d+j] = h
			}
			yi[j] = float32(g[j]*h) + b[j]
		}
	}
}

func layerNormAffineRowsGo(y, xhat, g, b []float32, rows, d int) {
	for r := 0; r < rows; r++ {
		yi, hi := y[r*d:(r+1)*d], xhat[r*d:(r+1)*d]
		for j, h := range hi {
			yi[j] = float32(g[j]*h) + b[j]
		}
	}
}

func layerNormBwdRowsGo(dx, dy, xhat, invStd, g []float32, rows, d int) {
	invN := 1 / float32(d)
	for r := 0; r < rows; r++ {
		dyr := dy[r*d : (r+1)*d]
		xh := xhat[r*d : (r+1)*d]
		var s1, s2 [8]float32
		for j, v := range dyr {
			dxh := float32(v * g[j])
			s1[j&7] += dxh
			s2[j&7] += float32(dxh * xh[j])
		}
		a := float32(invN * laneSum(&s1))
		c := float32(invN * laneSum(&s2))
		inv := invStd[r]
		dxr := dx[r*d : (r+1)*d]
		for j, v := range dyr {
			dxh := float32(v * g[j])
			dxr[j] = inv * (float32(dxh-a) - float32(xh[j]*c))
		}
	}
}

// layerNormColSumsGo adds rows rows (stride ld) into the len(dg)
// column accumulators.
func layerNormColSumsGo(dg, db, dy, xhat []float32, rows, ld int) {
	for r := 0; r < rows; r++ {
		dyr := dy[r*ld : r*ld+len(dg)]
		xh := xhat[r*ld : r*ld+len(dg)]
		for j, v := range dyr {
			dg[j] += float32(v * xh[j])
			db[j] += v
		}
	}
}

// colSumsGo adds rows rows (stride ld) into the len(dst) column
// accumulators.
func colSumsGo(dst, x []float32, rows, ld int) {
	for r := 0; r < rows; r++ {
		for j, v := range x[r*ld : r*ld+len(dst)] {
			dst[j] += v
		}
	}
}
