//go:build !amd64 || purego

package tensor

func layerNormRows(y, xhat, invStd, x, g, b []float32, rows, d int, eps float32) {
	layerNormRowsGo(y, xhat, invStd, x, g, b, rows, d, eps)
}

func layerNormAffineRows(y, xhat, g, b []float32, rows, d int) {
	layerNormAffineRowsGo(y, xhat, g, b, rows, d)
}

func layerNormBwdRows(dx, dy, xhat, invStd, g []float32, rows, d int) {
	layerNormBwdRowsGo(dx, dy, xhat, invStd, g, rows, d)
}

func layerNormColSums(dg, db, dy, xhat []float32, rows, ld int) {
	layerNormColSumsGo(dg, db, dy, xhat, rows, ld)
}

func colSums(dst, x []float32, rows, ld int) { colSumsGo(dst, x, rows, ld) }
