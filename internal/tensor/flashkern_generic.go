//go:build !amd64 || purego

package tensor

func flashSoftmaxCols(s []float32, rows int, scale float32, ml *[2 * nr]float32, acc []float32) {
	flashSoftmaxColsGo(s, rows, scale, ml, acc)
}

func flashJacobian(s, dp []float32, rows int, scale float32, stat []float32) {
	flashJacobianGo(s, dp, rows, scale, stat)
}
