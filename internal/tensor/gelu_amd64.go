//go:build amd64 && !purego

package tensor

// The assembly bodies (gelu_amd64.s) process n floats eight lanes at a
// time; n must be a positive multiple of 8. Source and destination may
// be the same buffer.
//
//go:noescape
func geluFwdAVX2(dst, x *float32, n int)

//go:noescape
func geluBwdAVX2(dx, dy, x *float32, n int)

// Ragged tails go through the same 8-lane body on a zero-padded stack
// buffer (chunk independence, see gelu.go).

func geluFwd(dst, x []float32) {
	if !haveFMA {
		geluFwdGo(dst, x)
		return
	}
	n := len(x)
	if v := n &^ 7; v > 0 {
		geluFwdAVX2(&dst[0], &x[0], v)
	}
	if tail := n & 7; tail > 0 {
		var bx [8]float32
		copy(bx[:], x[n-tail:])
		geluFwdAVX2(&bx[0], &bx[0], 8)
		copy(dst[n-tail:], bx[:tail])
	}
}

func geluBwd(dx, dy, x []float32) {
	if !haveFMA {
		geluBwdGo(dx, dy, x)
		return
	}
	n := len(x)
	if v := n &^ 7; v > 0 {
		geluBwdAVX2(&dx[0], &dy[0], &x[0], v)
	}
	if tail := n & 7; tail > 0 {
		var bx, by [8]float32
		copy(bx[:], x[n-tail:])
		copy(by[:], dy[n-tail:])
		geluBwdAVX2(&by[0], &by[0], &bx[0], 8)
		copy(dx[n-tail:], by[:tail])
	}
}
