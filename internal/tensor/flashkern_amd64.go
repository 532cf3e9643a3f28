//go:build amd64 && !purego

package tensor

// Assembly bodies (flashkern_amd64.s); see flashkern.go for the
// contracts. rows ≥ 1; acc holds accRows rows of nr floats.
//
//go:noescape
func flashSoftmaxColsAVX2(s *float32, rows int, scale float32, ml, acc *float32, accRows int)

//go:noescape
func flashJacobianAVX2(s, dp *float32, rows int, scale float32, stat *float32)

func flashSoftmaxCols(s []float32, rows int, scale float32, ml *[2 * nr]float32, acc []float32) {
	if !haveFMA {
		flashSoftmaxColsGo(s, rows, scale, ml, acc)
		return
	}
	_ = s[rows*nr-1]
	flashSoftmaxColsAVX2(&s[0], rows, scale, &ml[0], &acc[0], len(acc)/nr)
}

func flashJacobian(s, dp []float32, rows int, scale float32, stat []float32) {
	if !haveFMA {
		flashJacobianGo(s, dp, rows, scale, stat)
		return
	}
	_, _, _ = s[rows*nr-1], dp[rows*nr-1], stat[3*rows-1]
	flashJacobianAVX2(&s[0], &dp[0], rows, scale, &stat[0])
}
