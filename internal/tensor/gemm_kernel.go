package tensor

import "unsafe"

// kern6x16go is the portable micro-kernel over the packed panel layout:
// ap holds kc steps of mr A values (ap[kk*mr+r]), bp holds kc steps of
// nr B values (bp[kk*nr+j]), and the mr×nr product tile is accumulated
// into C rows of stride ldc. It always accumulates (C += A·B); the
// driver zeroes C up front when acc is false.
//
// The tile is computed as 2×8 sub-tiles with individually named
// accumulators — Go does not register-allocate arrays, so sixteen
// scalars are what keeps the inner loop out of memory. The packed
// panels are L1-resident, making the extra panel re-reads cheap. On
// amd64 with AVX2+FMA the assembly kernel in gemm_kernel_amd64.s
// replaces this function at runtime.
func kern6x16go(kc int, apf, bpf, cpf *float32, ldc int) {
	ap := unsafe.Slice(apf, kc*mr)
	bp := unsafe.Slice(bpf, kc*nr)
	c := unsafe.Slice(cpf, (mr-1)*ldc+nr)
	for rr := 0; rr < mr; rr += 2 {
		for jj := 0; jj < nr; jj += 8 {
			var s00, s01, s02, s03, s04, s05, s06, s07 float32
			var s10, s11, s12, s13, s14, s15, s16, s17 float32
			for kk := 0; kk < kc; kk++ {
				a0 := ap[kk*mr+rr]
				a1 := ap[kk*mr+rr+1]
				b := bp[kk*nr+jj : kk*nr+jj+8 : kk*nr+jj+8]
				s00 += a0 * b[0]
				s10 += a1 * b[0]
				s01 += a0 * b[1]
				s11 += a1 * b[1]
				s02 += a0 * b[2]
				s12 += a1 * b[2]
				s03 += a0 * b[3]
				s13 += a1 * b[3]
				s04 += a0 * b[4]
				s14 += a1 * b[4]
				s05 += a0 * b[5]
				s15 += a1 * b[5]
				s06 += a0 * b[6]
				s16 += a1 * b[6]
				s07 += a0 * b[7]
				s17 += a1 * b[7]
			}
			c0 := c[rr*ldc+jj : rr*ldc+jj+8 : rr*ldc+jj+8]
			c0[0] += s00
			c0[1] += s01
			c0[2] += s02
			c0[3] += s03
			c0[4] += s04
			c0[5] += s05
			c0[6] += s06
			c0[7] += s07
			c1 := c[(rr+1)*ldc+jj : (rr+1)*ldc+jj+8 : (rr+1)*ldc+jj+8]
			c1[0] += s10
			c1[1] += s11
			c1[2] += s12
			c1[3] += s13
			c1[4] += s14
			c1[5] += s15
			c1[6] += s16
			c1[7] += s17
		}
	}
}

// kern6x16PanelsGo is the portable form of the attention score-strip
// kernel: it zeroes the n panel-major tiles at cpf and runs the
// portable micro-kernel once per A panel.
func kern6x16PanelsGo(kc int, apf, bpf, cpf *float32, n int) {
	ap := unsafe.Slice(apf, n*kc*mr)
	c := unsafe.Slice(cpf, n*mr*nr)
	clear(c)
	for p := 0; p < n; p++ {
		kern6x16go(kc, &ap[p*kc*mr], bpf, &c[p*mr*nr], nr)
	}
}
