package tensor

import (
	"fmt"
	"math"

	"repro/internal/parallel"
)

// Add computes dst = a + b elementwise over equal-length slices (dst
// may alias either), eight lanes at a time like Scale: the residual
// adds walk a whole activation.
func Add(dst, a, b []float32) {
	checkLen3(dst, a, b)
	parallel.Range(len(dst), func(lo, hi int) {
		add(dst[lo:hi], a[lo:hi], b[lo:hi])
	})
}

// AddSerial is Add on the calling goroutine, for callers that must not
// hand work to the pool: the same eight-lane kernel, the same bits (one
// float32 sum per element). Every ring hop of a collective accumulates
// through it on its queue worker.
func AddSerial(dst, a, b []float32) {
	checkLen3(dst, a, b)
	add(dst, a, b)
}

// Scale computes dst = alpha * a elementwise (dst may alias a), eight
// lanes at a time where the sumsq.go kernels run in assembly: the clip
// and the gradient pack-and-scale are walks of the whole parameter
// space.
func Scale(dst, a []float32, alpha float32) {
	checkLen2(dst, a)
	parallel.Range(len(dst), func(lo, hi int) {
		scale(dst[lo:hi], a[lo:hi], alpha)
	})
}

// Sum returns the sum of all elements.
func Sum(a []float32) float64 {
	var s float64
	for _, v := range a {
		s += float64(v)
	}
	return s
}

// Mean returns the arithmetic mean (0 for empty input).
func Mean(a []float32) float64 {
	if len(a) == 0 {
		return 0
	}
	return Sum(a) / float64(len(a))
}

// L2Norm returns the Euclidean norm of a, accumulated in float64.
func L2Norm(a []float32) float64 {
	var s SumSq
	s.Add(a, 0)
	return math.Sqrt(s.Sum())
}

// Softmax computes a numerically stable softmax over each row of the
// (rows × cols) matrix x, writing into dst (which may alias x).
func Softmax(dst, x []float32, rows, cols int) {
	SoftmaxScaled(dst, x, rows, cols, 1)
}

// SoftmaxScaled computes softmax(scale·x) row-wise without a separate
// scaling sweep: the multiply is folded into the max/exp pass, so the
// result is bitwise identical to scaling x in place and then calling
// Softmax (each element is scaled by exactly one float32 multiply
// either way) while touching the row once less. scale=1 reproduces
// Softmax exactly (·1.0 is the identity on every float32).
func SoftmaxScaled(dst, x []float32, rows, cols int, scale float32) {
	checkSoftmaxShape(rows, cols, "Softmax", dst, x)
	parallel.RangeGrain(rows, 1+parallel.MinGrain/(cols+1), func(lo, hi int) {
		for r := lo; r < hi; r++ {
			xi := x[r*cols : r*cols+cols]
			di := dst[r*cols : r*cols+cols]
			softmaxRow(di, xi, scale)
		}
	})
}

// softmaxRow computes one stable softmax row serially over scale·x.
func softmaxRow(dst, x []float32, scale float32) {
	maxv := scale * x[0]
	for _, v := range x[1:] {
		if sv := scale * v; sv > maxv {
			maxv = sv
		}
	}
	var sum float64
	for i, v := range x {
		e := float32(math.Exp(float64(scale*v - maxv)))
		dst[i] = e
		sum += float64(e)
	}
	inv := float32(1 / sum)
	for i := range dst {
		dst[i] *= inv
	}
}

// SoftmaxBackward computes the gradient of a row softmax: given the
// softmax output y and upstream gradient dy over (rows × cols), it
// writes dx[i] = y[i] * (dy[i] - Σ_j y[j]·dy[j]) per row. dx may alias
// dy.
func SoftmaxBackward(dx, y, dy []float32, rows, cols int) {
	SoftmaxBackwardScaled(dx, y, dy, rows, cols, 1)
}

// SoftmaxBackwardScaled is SoftmaxBackward with a trailing gradient
// scale folded into the write pass: dx[i] = (y[i]·(dy[i]-s))·scale.
// The product associates exactly as the old "backward then scale dx in
// place" sequence, so results are bitwise identical to it, and scale=1
// is the plain backward.
func SoftmaxBackwardScaled(dx, y, dy []float32, rows, cols int, scale float32) {
	checkSoftmaxShape(rows, cols, "SoftmaxBackward", dx, y, dy)
	parallel.RangeGrain(rows, 1+parallel.MinGrain/(cols+1), func(lo, hi int) {
		for r := lo; r < hi; r++ {
			yr := y[r*cols : r*cols+cols]
			dyr := dy[r*cols : r*cols+cols]
			dxr := dx[r*cols : r*cols+cols]
			var s float64
			for j := range yr {
				s += float64(yr[j]) * float64(dyr[j])
			}
			sf := float32(s)
			for j := range yr {
				dxr[j] = yr[j] * (dyr[j] - sf) * scale
			}
		}
	})
}

// checkSoftmaxShape validates a row-softmax shape and its operand
// lengths with named panics, so an undersized buffer or a zero-column
// call fails at the API boundary instead of as a slice-bounds fault
// inside a parallel worker.
func checkSoftmaxShape(rows, cols int, name string, bufs ...[]float32) {
	if rows < 0 || (rows > 0 && cols <= 0) {
		panic(fmt.Sprintf("tensor: %s invalid shape %d×%d", name, rows, cols))
	}
	for _, b := range bufs {
		if len(b) < rows*cols {
			panic("tensor: " + name + " buffer too small")
		}
	}
}

// Transpose writes aᵀ into dst for a (rows × cols) matrix a; dst must
// have capacity cols × rows and must not alias a.
func Transpose(dst, a []float32, rows, cols int) {
	if len(dst) < rows*cols || len(a) < rows*cols {
		panic("tensor: Transpose buffer too small")
	}
	parallel.RangeGrain(rows, 1+parallel.MinGrain/(cols+1), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			for j := 0; j < cols; j++ {
				dst[j*rows+i] = a[i*cols+j]
			}
		}
	})
}

// GatherRows copies rows idx[i] of src (n × cols) into row i of dst
// (len(idx) × cols). Used by MAE masking to keep only visible patches.
func GatherRows(dst, src []float32, idx []int, cols int) {
	for i, r := range idx {
		copy(dst[i*cols:(i+1)*cols], src[r*cols:(r+1)*cols])
	}
}

// ScatterRowsAdd adds row i of src into row idx[i] of dst. The adjoint
// of GatherRows.
func ScatterRowsAdd(dst, src []float32, idx []int, cols int) {
	for i, r := range idx {
		d := dst[r*cols : (r+1)*cols]
		s := src[i*cols : (i+1)*cols]
		for j := range d {
			d[j] += s[j]
		}
	}
}

func checkLen3(a, b, c []float32) {
	if len(a) != len(b) || len(b) != len(c) {
		panic("tensor: length mismatch")
	}
}

func checkLen2(a, b []float32) {
	if len(a) != len(b) {
		panic("tensor: length mismatch")
	}
}
