//go:build amd64 && !purego

package tensor

import "repro/internal/hw"

// kern6x16 is the AVX2+FMA micro-kernel (gemm_kernel_amd64.s): twelve
// YMM accumulators hold the 6×16 C tile, each K step broadcasts six A
// values against two 8-lane B vectors. Operand addressing and the
// write-back are kern6x16go's (gemm_kernel.go).
//
//go:noescape
func kern6x16(kc int, a *float32, ars, aks int, b *float32, bks int, c *float32, ldc int, acc bool, bias *float32)

// kern6x16Panels is the store form the attention score strips use
// (gemm_kernel_amd64.s): n ≥ 1 consecutive A panels against one B
// panel, each 6×16 product written panel-major at cp + p·mr·nr.
//
//go:noescape
func kern6x16Panels(kc int, ap, bp, cp *float32, n int)

// haveFMA reports whether the CPU and OS support AVX2 and FMA (and the
// OS saves YMM state), gating the assembly micro-kernel. The probe
// lives in hw.Detect so the kernel dispatch and the calibration
// harness read one shared feature record instead of scattering CPUID
// checks per package.
var haveFMA = hw.Detect().SIMD()

// haveFastKernel gates the blocked-and-packed GEMM path: without the
// SIMD micro-kernel the packing overhead is pure loss and the
// dispatchers stay on the streaming kernels.
var haveFastKernel = haveFMA

// microKernStrided dispatches to the assembly kernel when the CPU
// supports it.
func microKernStrided(kc int, a *float32, ars, aks int, b *float32, bks int, c *float32, ldc int, acc bool, bias *float32) {
	if haveFMA {
		kern6x16(kc, a, ars, aks, b, bks, c, ldc, acc, bias)
		return
	}
	kern6x16go(kc, a, ars, aks, b, bks, c, ldc, acc, bias)
}

// microKernPanels computes n consecutive A panels (kc·mr floats apart)
// against one B panel and stores the n mr×nr tiles panel-major,
// contiguous at cp: tile p is A_p·B with row stride nr. Each element
// is bitwise what microKern accumulates into a zeroed tile.
func microKernPanels(kc int, ap, bp, cp *float32, n int) {
	if haveFMA {
		kern6x16Panels(kc, ap, bp, cp, n)
		return
	}
	kern6x16PanelsGo(kc, ap, bp, cp, n)
}
