package tensor

// bf16-input GEMM: C = A·B with the B operand stored as bf16 ([]uint16,
// row-major k×n). This is the serving stack's weight format — weights
// are rounded to bf16 once at load, and the GEMM streams the 2-byte
// encoding directly, widening each panel inside the pack stage with
// the dispatched fromBF16 vector kernel instead of round-tripping the
// whole weight matrix through an fp32 buffer first. Widening is exact
// (bf16 → float32 reattaches zero mantissa bits), and the compute
// stage is gemmCompute — the same loop the fp32 path runs — so:
//
//	MatMulBF16(c, a, wbf16, ...) ≡ MatMul(c, a, FromBF16(wbf16), ...)
//
// bit-for-bit on every build (both sides take the same branch, chosen
// by shape). FuzzBF16Gemm pins that invariant; it is what keeps the
// serve bf16 equivalence tests bitwise green after the switch.

// MatMulBF16 computes C = A·B (or C += A·B when acc is true) with
// A (m×k) float32 and B (k×n) bf16, both contiguous row-major.
func MatMulBF16(c, a []float32, b []uint16, m, k, n int, acc bool) {
	matMulBF16(c, a, b, nil, m, k, n, k, n, n, acc, "MatMulBF16")
}

// MatMulBF16Bias is MatMulBF16 with MatMulBias's bias row: bitwise
// MatMulBias over the widened weights.
func MatMulBF16Bias(c, a []float32, b []uint16, bias []float32, m, k, n int, acc bool) {
	matMulBF16(c, a, b, bias, m, k, n, k, n, n, acc, "MatMulBF16Bias")
}

func matMulBF16(c, a []float32, b []uint16, bias []float32, m, k, n, lda, ldb, ldc int, acc bool, name string) {
	checkGEMMLd(len(c), len(a), len(b), m, k, n, lda, ldb, ldc, opNN, name)
	checkGEMMBias(bias, n, name)
	if m <= 0 || n <= 0 {
		return
	}
	if k > 0 && m*k*n >= smallGEMMFlops {
		// gemmBlocked's opNN path with the B pack stage widening bf16
		// panels; a bf16 B is never read in place.
		bbuf := packB(k, n, nr, 0, func(dst []float32, p0, kcEff, j0, jw int) {
			packBPanelNBF16(dst, b[p0*ldb:], kcEff, ldb, j0, jw)
		})
		gemmCompute(c, a, nil, *bbuf, bias, m, k, n, lda, 0, ldc, 0, acc, opNN)
		packBPool.Put(bbuf)
		return
	}
	// Small problems and k = 0: widen B once into pooled scratch and run
	// the streaming kernel MatMulLd picks for this size, preserving the
	// bitwise-equals-widened invariant.
	wbuf := getPack(&packBPool, max(k, 0)*n)
	wb := *wbuf
	for kk := 0; kk < k; kk++ {
		fromBF16(wb[kk*n:kk*n+n], b[kk*ldb:kk*ldb+n])
	}
	matMul(c, a, wb, bias, m, k, n, lda, n, ldc, acc, name)
	packBPool.Put(wbuf)
}

// packBPanelNBF16 mirrors packBPanelN for a bf16-encoded B, widening
// each row segment with the dispatched vector kernel. The produced
// panel is bitwise identical to packBPanelN over FromBF16(b).
func packBPanelNBF16(dst []float32, b []uint16, kcEff, ldb, j0, jw int) {
	for kk := 0; kk < kcEff; kk++ {
		d := dst[kk*nr : kk*nr+nr]
		fromBF16(d[:jw], b[kk*ldb+j0:kk*ldb+j0+jw])
		for j := jw; j < nr; j++ {
			d[j] = 0
		}
	}
}
