//go:build amd64 && !purego

package tensor

// Assembly bodies (layernorm_amd64.s): rows ≥ 1 rows of d floats, d a
// positive multiple of 8. xhat and invStd may be nil in the forward.
//
//go:noescape
func layerNormFwdAVX2(y, xhat, invStd, x, gamma, beta *float32, rows, d int, eps float32)

//go:noescape
func layerNormAffineAVX2(y, xhat, gamma, beta *float32, rows, d int)

//go:noescape
func layerNormBwdAVX2(dx, dy, xhat, invStd, gamma *float32, rows, d int)

// layerNormColSumsAVX2 adds rows ≥ 1 rows, ld floats apart, into the
// eight column accumulators at dg and db.
//
//go:noescape
func layerNormColSumsAVX2(dg, db, dy, xhat *float32, rows, ld int)

func layerNormRows(y, xhat, invStd, x, g, b []float32, rows, d int, eps float32) {
	if !haveFMA || d&7 != 0 || rows == 0 {
		layerNormRowsGo(y, xhat, invStd, x, g, b, rows, d, eps)
		return
	}
	var xh, is *float32
	if xhat != nil {
		xh = &xhat[0]
	}
	if invStd != nil {
		is = &invStd[0]
	}
	layerNormFwdAVX2(&y[0], xh, is, &x[0], &g[0], &b[0], rows, d, eps)
}

func layerNormAffineRows(y, xhat, g, b []float32, rows, d int) {
	if !haveFMA || d&7 != 0 || rows == 0 {
		layerNormAffineRowsGo(y, xhat, g, b, rows, d)
		return
	}
	layerNormAffineAVX2(&y[0], &xhat[0], &g[0], &b[0], rows, d)
}

func layerNormBwdRows(dx, dy, xhat, invStd, g []float32, rows, d int) {
	if !haveFMA || d&7 != 0 || rows == 0 {
		layerNormBwdRowsGo(dx, dy, xhat, invStd, g, rows, d)
		return
	}
	layerNormBwdAVX2(&dx[0], &dy[0], &xhat[0], &invStd[0], &g[0], rows, d)
}

// layerNormColSums runs whole groups of eight columns in assembly and
// the ragged remainder through the scalar lane; a column's sum is the
// same sequence of rounded operations either way.
func layerNormColSums(dg, db, dy, xhat []float32, rows, ld int) {
	j := 0
	if haveFMA {
		for ; j+8 <= len(dg); j += 8 {
			layerNormColSumsAVX2(&dg[j], &db[j], &dy[j], &xhat[j], rows, ld)
		}
	}
	if j < len(dg) {
		layerNormColSumsGo(dg[j:], db[j:], dy[j:], xhat[j:], rows, ld)
	}
}

// colSumsAVX2 adds rows ≥ 1 rows, ld floats apart, into the n column
// accumulators at dst, n a positive multiple of 8.
//
//go:noescape
func colSumsAVX2(dst, x *float32, rows, ld, n int)

// colSums runs whole groups of eight columns in assembly and the ragged
// remainder through the scalar lane, like layerNormColSums.
func colSums(dst, x []float32, rows, ld int) {
	n8 := 0
	if haveFMA {
		n8 = len(dst) &^ 7
	}
	if n8 > 0 {
		colSumsAVX2(&dst[0], &x[0], rows, ld, n8)
	}
	if n8 < len(dst) {
		colSumsGo(dst[n8:], x[n8:], rows, ld)
	}
}
