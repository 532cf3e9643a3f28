//go:build amd64 && !purego

package tensor

// Assembly bodies (sumsq_amd64.s): n floats, a positive multiple of 8,
// the first of which belongs to lane 0.
//
//go:noescape
func sumSqAVX2(lane *[8]float64, x *float32, n int)

// scaleSumSqAVX2 returns the OR of the bits of x[i]−x[i] over the
// elements as read: zero exactly when all of them were finite.
//
//go:noescape
func scaleSumSqAVX2(lane *[8]float64, x *float32, n int, alpha float32) uint32

func sumSqBody(lane *[8]float64, x []float32) {
	if !haveFMA {
		sumSqBodyGo(lane, x)
	} else if len(x) > 0 {
		sumSqAVX2(lane, &x[0], len(x))
	}
}

func scaleSumSqBody(lane *[8]float64, x []float32, alpha float32) bool {
	if !haveFMA {
		return scaleSumSqBodyGo(lane, x, alpha)
	}
	return len(x) > 0 && scaleSumSqAVX2(lane, &x[0], len(x), alpha) != 0
}

// scaleAVX2 computes dst[i] = alpha·src[i] over n floats, a positive
// multiple of 8; dst may be src.
//
//go:noescape
func scaleAVX2(dst, src *float32, n int, alpha float32)

func scale(dst, src []float32, alpha float32) {
	n8 := 0
	if haveFMA {
		n8 = len(src) &^ 7
	}
	if n8 > 0 {
		scaleAVX2(&dst[0], &src[0], n8, alpha)
	}
	scaleGo(dst[n8:], src[n8:], alpha)
}

// addAVX2 computes dst[i] = a[i] + b[i] over n floats, a positive
// multiple of 8; dst may be a or b.
//
//go:noescape
func addAVX2(dst, a, b *float32, n int)

func add(dst, a, b []float32) {
	n8 := 0
	if haveFMA {
		n8 = len(dst) &^ 7
	}
	if n8 > 0 {
		addAVX2(&dst[0], &a[0], &b[0], n8)
	}
	addGo(dst[n8:], a[n8:], b[n8:])
}
