//go:build !amd64 || purego

package tensor

// microKernStrided dispatches the portable micro-kernel on platforms
// without a hand-written assembly kernel.
func microKernStrided(kc int, a *float32, ars, aks int, b *float32, bks int, c *float32, ldc int, acc bool, bias *float32) {
	kern6x16go(kc, a, ars, aks, b, bks, c, ldc, acc, bias)
}

// microKern2x16 runs the portable two-row kernel.
func microKern2x16(kc int, a *float32, ars, aks int, b *float32, bks int, c *float32, ldc int, acc bool, bias *float32) {
	kern2x16go(kc, a, ars, aks, b, bks, c, ldc, acc, bias)
}

// microKernPanels computes n consecutive A panels (kc·mr floats apart)
// against one B panel and stores the n mr×nr tiles panel-major,
// contiguous at cp: tile p is A_p·B with row stride nr.
func microKernPanels(kc int, ap, bp, cp *float32, n int) {
	kern6x16PanelsGo(kc, ap, bp, cp, n)
}

// microKern8x8 runs the portable swapped-orientation tile.
func microKern8x8(kc int, a *float32, ars, aks int, b *float32, bks int, c *float32, ldc int, acc bool, bias *float32) {
	kern8x8go(kc, a, ars, aks, b, bks, c, ldc, acc, bias)
}

// transpose8 writes dst[c·ldd + r] = src[r·lds + c] for r, c < 8.
func transpose8(dst []float32, ldd int, src []float32, lds int) {
	transpose8Go(dst, ldd, src, lds)
}
