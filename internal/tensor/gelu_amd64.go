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

//go:noescape
func softmaxJacobianAVX2(e, dp *float32, n int, invL, di, scale float32)

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

// softmaxJacobianRow overwrites e[j] (the exponentials of one score
// row) with p = e·invL and dp[j] with ds = p·(dp − di)·scale.
func softmaxJacobianRow(e, dp []float32, invL, di, scale float32) {
	if !haveFMA {
		softmaxJacobianRowGo(e, dp, invL, di, scale)
		return
	}
	n := len(e)
	if v := n &^ 7; v > 0 {
		softmaxJacobianAVX2(&e[0], &dp[0], v, invL, di, scale)
	}
	if tail := n & 7; tail > 0 {
		var be, bd [8]float32
		copy(be[:], e[n-tail:])
		copy(bd[:], dp[n-tail:])
		softmaxJacobianAVX2(&be[0], &bd[0], 8, invL, di, scale)
		copy(e[n-tail:], be[:tail])
		copy(dp[n-tail:], bd[:tail])
	}
}
