package tensor

import "unsafe"

// kern6x16go is the portable micro-kernel, and the statement of what
// the assembly kernel in gemm_kernel_amd64.s computes: one mr×nr tile
// of C from kc K steps, with both operands addressed by element
// strides — A element (r, kk) at a[r*ars+kk*aks], B row kk the nr
// floats at b[kk*bks] — so one loop serves packed panels and matrices
// read where they lie:
//
//	packed panels (ap[kk*mr+r], bp[kk*nr+j])   ars, aks, bks = 1, mr, nr
//	row-major A in place (a[i*lda+kk])         ars, aks = lda, 1
//	transposed A in place (a[kk*lda+i])        ars, aks = 1, lda
//	row-major B in place (b[kk*ldb+j])         bks = ldb
//
// The write-back stores the tile's sums Σ into C rows of stride ldc
// when acc is false and adds them (C + Σ) when it is true; a non-nil
// bias then adds its nr floats to every row. Σ is never −0 (the
// accumulators start at +0), so storing Σ is bitwise what adding it to
// a zeroed C was.
//
// The tile is computed as 2×8 sub-tiles with individually named
// accumulators — Go does not register-allocate arrays, so sixteen
// scalars are what keeps the inner loop out of memory. Packed panels
// are L1-resident, making the extra panel re-reads cheap.
func kern6x16go(kc int, af *float32, ars, aks int, bf *float32, bks int, cf *float32, ldc int, acc bool, biasf *float32) {
	var a, b, bias []float32
	if kc > 0 {
		a = unsafe.Slice(af, (mr-1)*ars+(kc-1)*aks+1)
		b = unsafe.Slice(bf, (kc-1)*bks+nr)
	}
	if biasf != nil {
		bias = unsafe.Slice(biasf, nr)
	}
	c := unsafe.Slice(cf, (mr-1)*ldc+nr)
	for rr := 0; rr < mr; rr += 2 {
		for jj := 0; jj < nr; jj += 8 {
			var s00, s01, s02, s03, s04, s05, s06, s07 float32
			var s10, s11, s12, s13, s14, s15, s16, s17 float32
			ia, ib := rr*ars, jj
			for kk := 0; kk < kc; kk++ {
				a0 := a[ia]
				a1 := a[ia+ars]
				bk := b[ib : ib+8 : ib+8]
				s00 += a0 * bk[0]
				s10 += a1 * bk[0]
				s01 += a0 * bk[1]
				s11 += a1 * bk[1]
				s02 += a0 * bk[2]
				s12 += a1 * bk[2]
				s03 += a0 * bk[3]
				s13 += a1 * bk[3]
				s04 += a0 * bk[4]
				s14 += a1 * bk[4]
				s05 += a0 * bk[5]
				s15 += a1 * bk[5]
				s06 += a0 * bk[6]
				s16 += a1 * bk[6]
				s07 += a0 * bk[7]
				s17 += a1 * bk[7]
				ia += aks
				ib += bks
			}
			var bj []float32
			if bias != nil {
				bj = bias[jj : jj+8]
			}
			writeBack(c[rr*ldc+jj:], []float32{s00, s01, s02, s03, s04, s05, s06, s07}, acc, bj)
			writeBack(c[(rr+1)*ldc+jj:], []float32{s10, s11, s12, s13, s14, s15, s16, s17}, acc, bj)
		}
	}
}

// writeBack is the micro-kernel's write-back over one run of a C row:
// Σ or C + Σ, then + bias. The driver's edge tiles (gemm.go) go through
// it too, so there is one statement of the order of the additions;
// writeBackT repeats it for a C stored transposed.
func writeBack(c, sums []float32, acc bool, bias []float32) {
	c = c[:len(sums)]
	for j, v := range sums {
		if acc {
			v = c[j] + v
		}
		if bias != nil {
			v += bias[j]
		}
		c[j] = v
	}
}

// writeBackT is the driver's write-back of a tile whose C is stored
// transposed: sum (r, j) of the tile's rows×cols valid region (row
// stride nr) is C element c[j·ldc+r], and the bias is indexed by the
// tile's row. The additions are writeBack's, in its order.
//
// Kept out of line: inlined into the driver's task closure, its loop
// state spills to the stack and the loop runs several times slower.
//
//go:noinline
func writeBackT(c, sums []float32, rows, cols, ldc int, acc bool, bias []float32) {
	for r := 0; r < rows; r++ {
		for j, v := range sums[r*nr : r*nr+cols] {
			p := &c[j*ldc+r]
			if acc {
				v = *p + v
			}
			if bias != nil {
				v += bias[r]
			}
			*p = v
		}
	}
}

// microKern is the micro-kernel over packed panels, accumulating into
// C: the form the attention tiles use (attention.go).
func microKern(kc int, ap, bp, cp *float32, ldc int) {
	microKernStrided(kc, ap, 1, mr, bp, nr, cp, ldc, true, nil)
}

// kern6x16PanelsGo is the portable form of the attention score-strip
// kernel: the portable micro-kernel once per A panel, storing the n
// tiles panel-major at cpf.
func kern6x16PanelsGo(kc int, apf, bpf, cpf *float32, n int) {
	ap := unsafe.Slice(apf, n*kc*mr)
	c := unsafe.Slice(cpf, n*mr*nr)
	for p := 0; p < n; p++ {
		kern6x16go(kc, &ap[p*kc*mr], 1, mr, bpf, nr, &c[p*mr*nr], nr, false, nil)
	}
}
