package tensor

import "unsafe"

// kern6x16go is the portable micro-kernel, and the definition the
// assembly kernel in gemm_kernel_amd64.s matches bit for bit: one mr×nr
// tile of C from kc K steps, with both operands addressed by element
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
// bias then adds its nr floats to every row.
//
// Each sum is a chain of single-rounding multiply-adds in K order,
// s ← fma32(a, b, s) from s = +0 — one VFMADD lane's arithmetic. Σ is
// never −0 unless a partial sum underflows from below (an exact value
// in (−2⁻¹⁵⁰, 0)), so short of that, storing Σ is bitwise what adding
// it to a zeroed C was.
//
// The tile is computed as 2×8 sub-tiles with individually named
// accumulators — Go does not register-allocate arrays, so sixteen
// scalars are what keeps the inner loop out of memory. Packed panels
// are L1-resident, making the extra panel re-reads cheap.
func kern6x16go(kc int, af *float32, ars, aks int, bf *float32, bks int, cf *float32, ldc int, acc bool, biasf *float32) {
	kernRowsx16go(mr, kc, af, ars, aks, bf, bks, cf, ldc, acc, biasf)
}

// kern2x16go is kern6x16go over two rows, the definition of the
// assembly kern2x16: the driver runs it on the valid rows of a ragged
// bottom panel of 2 or 4 rows instead of a zero-padded 6-row panel.
func kern2x16go(kc int, af *float32, ars, aks int, bf *float32, bks int, cf *float32, ldc int, acc bool, biasf *float32) {
	kernRowsx16go(2, kc, af, ars, aks, bf, bks, cf, ldc, acc, biasf)
}

// kernRowsx16go is kern6x16go's body over an even number of rows.
func kernRowsx16go(rows, kc int, af *float32, ars, aks int, bf *float32, bks int, cf *float32, ldc int, acc bool, biasf *float32) {
	var a, b, bias []float32
	if kc > 0 {
		a = unsafe.Slice(af, (rows-1)*ars+(kc-1)*aks+1)
		b = unsafe.Slice(bf, (kc-1)*bks+nr)
	}
	if biasf != nil {
		bias = unsafe.Slice(biasf, nr)
	}
	c := unsafe.Slice(cf, (rows-1)*ldc+nr)
	for rr := 0; rr < rows; rr += 2 {
		for jj := 0; jj < nr; jj += 8 {
			var s00, s01, s02, s03, s04, s05, s06, s07 float32
			var s10, s11, s12, s13, s14, s15, s16, s17 float32
			ia, ib := rr*ars, jj
			for kk := 0; kk < kc; kk++ {
				a0 := a[ia]
				a1 := a[ia+ars]
				bk := b[ib : ib+8 : ib+8]
				s00 = fma32(a0, bk[0], s00)
				s10 = fma32(a1, bk[0], s10)
				s01 = fma32(a0, bk[1], s01)
				s11 = fma32(a1, bk[1], s11)
				s02 = fma32(a0, bk[2], s02)
				s12 = fma32(a1, bk[2], s12)
				s03 = fma32(a0, bk[3], s03)
				s13 = fma32(a1, bk[3], s13)
				s04 = fma32(a0, bk[4], s04)
				s14 = fma32(a1, bk[4], s14)
				s05 = fma32(a0, bk[5], s05)
				s15 = fma32(a1, bk[5], s15)
				s06 = fma32(a0, bk[6], s06)
				s16 = fma32(a1, bk[6], s16)
				s07 = fma32(a0, bk[7], s07)
				s17 = fma32(a1, bk[7], s17)
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
// Σ or C + Σ, then + bias. The driver's edge tiles (gemm.go) and
// kern8x8go go through it too, so there is one statement of the order
// of the additions.
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

// kern8x8go is the portable tile of the swapped-orientation product
// Cᵀ = B·Aᵀ (gemm.go), and the definition the assembly kern8x8 matches
// bit for bit: the 8×8 product tile P = A·B over kc K steps — A element
// (r, kk) at a[r*ars+kk*aks], B row kk the t8 floats at b[kk*bks] —
// written back into C transposed: C row j, t8 contiguous floats at
// c[j*ldc], is P's column j, stored (acc false) or added to C (acc
// true) by writeBack, which then adds a non-nil bias's t8 floats (the
// bias of P's rows) to every C row. Each sum is kern6x16go's chain,
// fma32 in K order from +0.
func kern8x8go(kc int, af *float32, ars, aks int, bf *float32, bks int, cf *float32, ldc int, acc bool, biasf *float32) {
	var a, b, bias []float32
	if kc > 0 {
		a = unsafe.Slice(af, (t8-1)*ars+(kc-1)*aks+1)
		b = unsafe.Slice(bf, (kc-1)*bks+t8)
	}
	if biasf != nil {
		bias = unsafe.Slice(biasf, t8)
	}
	c := unsafe.Slice(cf, (t8-1)*ldc+t8)
	var pt [t8 * t8]float32 // Pᵀ: pt[j*t8+r] = P[r][j]
	for r := 0; r < t8; r++ {
		var s0, s1, s2, s3, s4, s5, s6, s7 float32
		ia, ib := r*ars, 0
		for kk := 0; kk < kc; kk++ {
			ar := a[ia]
			bk := b[ib : ib+t8 : ib+t8]
			s0 = fma32(ar, bk[0], s0)
			s1 = fma32(ar, bk[1], s1)
			s2 = fma32(ar, bk[2], s2)
			s3 = fma32(ar, bk[3], s3)
			s4 = fma32(ar, bk[4], s4)
			s5 = fma32(ar, bk[5], s5)
			s6 = fma32(ar, bk[6], s6)
			s7 = fma32(ar, bk[7], s7)
			ia += aks
			ib += bks
		}
		pt[r], pt[t8+r], pt[2*t8+r], pt[3*t8+r] = s0, s1, s2, s3
		pt[4*t8+r], pt[5*t8+r], pt[6*t8+r], pt[7*t8+r] = s4, s5, s6, s7
	}
	for j := 0; j < t8; j++ {
		writeBack(c[j*ldc:], pt[j*t8:j*t8+t8], acc, bias)
	}
}

// transpose8Go is the portable strided 8×8 block transpose:
// dst[c·ldd + r] = src[r·lds + c] for r, c < 8.
func transpose8Go(dst []float32, ldd int, src []float32, lds int) {
	_, _ = dst[7*ldd+7], src[7*lds+7]
	for r := 0; r < t8; r++ {
		for c, v := range src[r*lds : r*lds+t8] {
			dst[c*ldd+r] = v
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
