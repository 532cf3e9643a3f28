//go:build !amd64 || purego

package tensor

func geluFwd(dst, x []float32)    { geluFwdGo(dst, x) }
func geluBwd(dx, dy, x []float32) { geluBwdGo(dx, dy, x) }

// softmaxJacobianRow overwrites e[j] (the exponentials of one score
// row) with p = e·invL and dp[j] with ds = p·(dp − di)·scale.
func softmaxJacobianRow(e, dp []float32, invL, di, scale float32) {
	softmaxJacobianRowGo(e, dp, invL, di, scale)
}
