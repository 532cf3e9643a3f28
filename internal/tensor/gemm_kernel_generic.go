//go:build !amd64 || purego

package tensor

// haveFastKernel reports whether a SIMD micro-kernel is available. The
// portable scalar micro-kernel cannot beat the streaming axpy/dot
// kernels (both sit at the scalar FP port limit), so without SIMD the
// dispatchers skip the packing overhead and stream directly.
const haveFastKernel = false

// microKernStrided dispatches the portable micro-kernel on platforms
// without a hand-written assembly kernel.
func microKernStrided(kc int, a *float32, ars, aks int, b *float32, bks int, c *float32, ldc int, acc bool, bias *float32) {
	kern6x16go(kc, a, ars, aks, b, bks, c, ldc, acc, bias)
}

// microKernPanels computes n consecutive A panels (kc·mr floats apart)
// against one B panel and stores the n mr×nr tiles panel-major,
// contiguous at cp: tile p is A_p·B with row stride nr.
func microKernPanels(kc int, ap, bp, cp *float32, n int) {
	kern6x16PanelsGo(kc, ap, bp, cp, n)
}
