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

// kern2x16 is kern6x16 over two rows (gemm_kernel_amd64.s): four YMM
// accumulators, two A broadcasts per K step. Operand addressing and
// the write-back are kern2x16go's (gemm_kernel.go).
//
//go:noescape
func kern2x16(kc int, a *float32, ars, aks int, b *float32, bks int, c *float32, ldc int, acc bool, bias *float32)

// kern6x16Panels is the store form the attention score strips use
// (gemm_kernel_amd64.s): n ≥ 1 consecutive A panels against one B
// panel, each 6×16 product written panel-major at cp + p·mr·nr.
//
//go:noescape
func kern6x16Panels(kc int, ap, bp, cp *float32, n int)

// kern8x8 is the AVX2+FMA tile of the swapped-orientation product
// (gemm_kernel_amd64.s): eight YMM accumulators hold an 8×8 product
// tile, each K step broadcasts eight A values against one 8-lane B
// vector, and an in-register 8×8 transpose writes the tile back into C
// transposed. Operand addressing and the write-back are kern8x8go's
// (gemm_kernel.go).
//
//go:noescape
func kern8x8(kc int, a *float32, ars, aks int, b *float32, bks int, c *float32, ldc int, acc bool, bias *float32)

// transpose8AVX2 is transpose8Go's strided 8×8 block transpose in
// registers (gemm_kernel_amd64.s).
//
//go:noescape
func transpose8AVX2(dst *float32, ldd int, src *float32, lds int)

// haveFMA reports whether the CPU and OS support AVX2 and FMA (and the
// OS saves YMM state), gating the assembly micro-kernel. The probe
// lives in hw.Detect so the kernel dispatch and the calibration
// harness read one shared feature record instead of scattering CPUID
// checks per package.
var haveFMA = hw.Detect().SIMD()

// microKernStrided dispatches to the assembly kernel when the CPU
// supports it.
func microKernStrided(kc int, a *float32, ars, aks int, b *float32, bks int, c *float32, ldc int, acc bool, bias *float32) {
	if haveFMA {
		kern6x16(kc, a, ars, aks, b, bks, c, ldc, acc, bias)
		return
	}
	kern6x16go(kc, a, ars, aks, b, bks, c, ldc, acc, bias)
}

// microKern2x16 dispatches the two-row kernel to the assembly when the
// CPU supports it.
func microKern2x16(kc int, a *float32, ars, aks int, b *float32, bks int, c *float32, ldc int, acc bool, bias *float32) {
	if haveFMA {
		kern2x16(kc, a, ars, aks, b, bks, c, ldc, acc, bias)
		return
	}
	kern2x16go(kc, a, ars, aks, b, bks, c, ldc, acc, bias)
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

// microKern8x8 dispatches the swapped-orientation tile to the assembly
// kernel when the CPU supports it.
func microKern8x8(kc int, a *float32, ars, aks int, b *float32, bks int, c *float32, ldc int, acc bool, bias *float32) {
	if haveFMA {
		kern8x8(kc, a, ars, aks, b, bks, c, ldc, acc, bias)
		return
	}
	kern8x8go(kc, a, ars, aks, b, bks, c, ldc, acc, bias)
}

// transpose8 writes dst[c·ldd + r] = src[r·lds + c] for r, c < 8.
func transpose8(dst []float32, ldd int, src []float32, lds int) {
	if !haveFMA {
		transpose8Go(dst, ldd, src, lds)
		return
	}
	_, _ = dst[7*ldd+7], src[7*lds+7]
	transpose8AVX2(&dst[0], ldd, &src[0], lds)
}
