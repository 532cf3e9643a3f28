package tensor

import (
	"fmt"
	"sync"

	"repro/internal/parallel"
)

// The GEMM kernels use the classic blocked-and-packed ("GotoBLAS")
// structure:
//
//   - A register-blocked mr×nr micro-kernel computes one C tile per
//     call, accumulating over a kcBlock-long K strip. On amd64 with
//     AVX2+FMA the micro-kernel is hand-written assembly
//     (gemm_kernel_amd64.s). The blocked path is SIMD-only: without
//     the assembly kernel (non-amd64, purego, or no AVX2) dispatch
//     stays on the streaming kernels, which already sit at the scalar
//     FP port limit, and the portable micro-kernel exists for the
//     driver's tests.
//   - Panels of A (mr rows × kcBlock) and B (kcBlock × nr columns) are
//     packed into contiguous, zero-padded scratch so the micro-kernel
//     reads purely sequential memory regardless of the operand's
//     storage order — which is also how the transposed variants
//     (MatMulTA, MatMulTB) share one micro-kernel: only the packing
//     routines differ.
//   - B is packed once up front (shared read-only by all workers); each
//     worker packs its own mcBlock×kcBlock slab of A per K strip, so
//     the innermost loops run from L1/L2-resident scratch.
//
// Work is split across the persistent pool in internal/parallel by
// contiguous row ranges of C, with the grain chosen so each task is at
// least gemmGrainFlops multiply-adds. Problems below smallGEMMFlops
// skip packing entirely and run the row-streaming kernels (axpy/dot
// forms), which win when the pack cost cannot be amortized.
const (
	mr = 6  // micro-kernel rows (A panel height)
	nr = 16 // micro-kernel cols (B panel width, 2×8 float32 lanes)

	// kcBlock is the K strip length: the packed A micro-panel
	// (mr×kcBlock ≈ 6 KiB) stays L1-resident and the packed B
	// micro-panel (kcBlock×nr ≈ 16 KiB) is reused across every A panel
	// of an mcBlock slab.
	kcBlock = 256
	// mcBlock is the slab of C rows per packed-A block (mcBlock×kcBlock
	// ≈ 72 KiB of packed A, sized for L2). Must be a multiple of mr.
	mcBlock = 72

	// smallGEMMFlops is the m·k·n cutoff below which packing overhead
	// outweighs the micro-kernel's throughput and the streaming kernels
	// are used instead.
	smallGEMMFlops = 1 << 15
)

// The A-panel packers' full-panel fast paths (packABlockN/T) name the
// mr rows of a panel one by one.
var _ = [1]struct{}{}[mr-6]

// gemmGrainFlops is the minimum number of multiply-adds worth of work
// per parallel task when splitting a GEMM across workers; below it the
// kernel runs serially. Expressed in output rows: rows × k × n.
const gemmGrainFlops = 1 << 16

// gemmOp selects which operand is logically transposed (storage is
// always row-major; the packing routines absorb the transpose).
type gemmOp int

const (
	opNN gemmOp = iota // C = A·B
	opTA               // C = Aᵀ·B, A stored (k×m)
	opTB               // C = A·Bᵀ, B stored (n×k)
)

// MatMul computes C = A·B (or C += A·B when acc is true) with
// A of shape (m×k), B of shape (k×n) and C of shape (m×n), all
// contiguous row-major.
func MatMul(c, a, b []float32, m, k, n int, acc bool) {
	MatMulLd(c, a, b, m, k, n, k, n, n, acc)
}

// MatMulLd is MatMul with explicit leading dimensions (row strides in
// elements) for A, B and C, so sub-matrices of larger row-major
// buffers — for example one attention head's slice of a fused
// (tokens × 3·width) projection — can be multiplied without copying.
func MatMulLd(c, a, b []float32, m, k, n, lda, ldb, ldc int, acc bool) {
	if gemmDispatch(c, a, b, m, k, n, lda, ldb, ldc, acc, opNN, "MatMul") {
		return
	}
	grain := rowsGrain(k, n)
	parallel.RangeGrain(m, grain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ci := c[i*ldc : i*ldc+n]
			if !acc {
				for j := range ci {
					ci[j] = 0
				}
			}
			ai := a[i*lda : i*lda+k]
			for kk, av := range ai {
				//statgate:allow floateq — sparsity skip: only an exactly-zero multiplier is safe to elide
				if av == 0 {
					continue
				}
				axpy(av, b[kk*ldb:kk*ldb+n], ci)
			}
		}
	})
}

// MatMulTB computes C = A·Bᵀ (or C += A·Bᵀ) with A (m×k), B (n×k),
// C (m×n).
func MatMulTB(c, a, b []float32, m, k, n int, acc bool) {
	MatMulTBLd(c, a, b, m, k, n, k, k, n, acc)
}

// MatMulTBLd is MatMulTB with explicit leading dimensions.
func MatMulTBLd(c, a, b []float32, m, k, n, lda, ldb, ldc int, acc bool) {
	if gemmDispatch(c, a, b, m, k, n, lda, ldb, ldc, acc, opTB, "MatMulTB") {
		return
	}
	grain := rowsGrain(k, n)
	parallel.RangeGrain(m, grain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ai := a[i*lda : i*lda+k]
			ci := c[i*ldc : i*ldc+n]
			for j := 0; j < n; j++ {
				s := dot(ai, b[j*ldb:j*ldb+k])
				if acc {
					ci[j] += s
				} else {
					ci[j] = s
				}
			}
		}
	})
}

// MatMulTA computes C = Aᵀ·B (or C += Aᵀ·B) with A (k×m), B (k×n),
// C (m×n). Each worker owns a contiguous row range of C, so no worker
// ever writes another's rows.
func MatMulTA(c, a, b []float32, m, k, n int, acc bool) {
	MatMulTALd(c, a, b, m, k, n, m, n, n, acc)
}

// MatMulTALd is MatMulTA with explicit leading dimensions.
func MatMulTALd(c, a, b []float32, m, k, n, lda, ldb, ldc int, acc bool) {
	if gemmDispatch(c, a, b, m, k, n, lda, ldb, ldc, acc, opTA, "MatMulTA") {
		return
	}
	grain := rowsGrain(k, n)
	parallel.RangeGrain(m, grain, func(lo, hi int) {
		if !acc {
			for i := lo; i < hi; i++ {
				ci := c[i*ldc : i*ldc+n]
				for j := range ci {
					ci[j] = 0
				}
			}
		}
		for kk := 0; kk < k; kk++ {
			ak := a[kk*lda : kk*lda+m]
			bk := b[kk*ldb : kk*ldb+n]
			for i := lo; i < hi; i++ {
				//statgate:allow floateq — sparsity skip: only an exactly-zero multiplier is safe to elide
				if av := ak[i]; av != 0 {
					axpy(av, bk, c[i*ldc:i*ldc+n])
				}
			}
		}
	})
}

// gemmDispatch is the prologue shared by the three Ld entry points:
// shape validation, degenerate shapes, and routing to the blocked path.
// It reports whether the product was fully handled; on false the caller
// runs its variant-specific streaming kernel.
func gemmDispatch(c, a, b []float32, m, k, n, lda, ldb, ldc int, acc bool, op gemmOp, name string) bool {
	checkGEMMLd(len(c), len(a), len(b), m, k, n, lda, ldb, ldc, op, name)
	if m <= 0 || n <= 0 {
		return true
	}
	if k <= 0 {
		zeroC(c, m, n, ldc, acc)
		return true
	}
	if haveFastKernel && m*k*n >= smallGEMMFlops {
		gemmBlocked(c, a, b, m, k, n, lda, ldb, ldc, acc, op)
		return true
	}
	return false
}

// gemmBlocked is the packed, register-blocked path shared by all three
// kernel variants; op selects the packing routines.
func gemmBlocked(c, a, b []float32, m, k, n, lda, ldb, ldc int, acc bool, op gemmOp) {
	nPanels := (n + nr - 1) / nr
	bbuf := getPack(&packBPool, k*nPanels*nr)
	bp := *bbuf

	// Pack all of B once, blocked by K strip then by nr-column panel.
	// Panels are disjoint, so the pack itself runs on the pool rather
	// than as a serial prefix ahead of the compute workers.
	nStrips := (k + kcBlock - 1) / kcBlock
	parallel.ForGrain(nStrips*nPanels, 8, func(idx int) {
		p0 := (idx / nPanels) * kcBlock
		jp := idx % nPanels
		kcEff := min(kcBlock, k-p0)
		j0 := jp * nr
		jw := min(nr, n-j0)
		dst := bp[p0*nPanels*nr+jp*kcEff*nr:]
		if op == opTB {
			packBPanelT(dst, b, kcEff, ldb, p0, j0, jw)
		} else {
			packBPanelN(dst, b[p0*ldb:], kcEff, ldb, j0, jw)
		}
	})

	gemmComputePacked(c, a, bp, m, k, n, lda, ldc, acc, op)
	packBPool.Put(bbuf)
}

// gemmComputePacked runs the register-blocked compute loop over an
// already fully packed B (the layout gemmBlocked's pack stage
// produces). Factored out so alternate B encodings — the bf16 weight
// path widens during packing — share one compute stage, which is also
// what makes MatMulBF16 bitwise equal to MatMul on pre-widened
// weights.
func gemmComputePacked(c, a, bp []float32, m, k, n, lda, ldc int, acc bool, op gemmOp) {
	nPanels := (n + nr - 1) / nr
	// Parallel split is over mr-row micro-panel tiles, not raw rows, so
	// every interior task boundary is micro-kernel aligned and only the
	// true bottom edge of C ever takes the partial-tile path.
	mTiles := (m + mr - 1) / mr
	grain := max(1, rowsGrain(k, n)/mr)
	parallel.RangeGrain(mTiles, grain, func(tlo, thi int) {
		lo, hi := tlo*mr, min(thi*mr, m)
		abuf := getPack(&packAPool, mcBlock*kcBlock)
		defer packAPool.Put(abuf)
		ap := *abuf
		if !acc {
			for i := lo; i < hi; i++ {
				ci := c[i*ldc : i*ldc+n]
				for j := range ci {
					ci[j] = 0
				}
			}
		}
		var tile [mr * nr]float32
		for i0 := lo; i0 < hi; i0 += mcBlock {
			mcEff := min(mcBlock, hi-i0)
			mPanels := (mcEff + mr - 1) / mr
			for p0 := 0; p0 < k; p0 += kcBlock {
				kcEff := min(kcBlock, k-p0)
				if op == opTA {
					packABlockT(ap, a, i0, mcEff, p0, kcEff, lda)
				} else {
					packABlockN(ap, a, i0, mcEff, p0, kcEff, lda)
				}
				base := p0 * nPanels * nr
				for jp := 0; jp < nPanels; jp++ {
					j0 := jp * nr
					jw := min(nr, n-j0)
					bpanel := &bp[base+jp*kcEff*nr]
					for ip := 0; ip < mPanels; ip++ {
						i := i0 + ip*mr
						rw := min(mr, i0+mcEff-i)
						apanel := &ap[ip*mr*kcEff]
						if rw == mr && jw == nr {
							microKern(kcEff, apanel, bpanel, &c[i*ldc+j0], ldc)
							continue
						}
						// Edge tile: run the full-size kernel into a
						// zeroed scratch tile (packed panels are
						// zero-padded) and fold the valid region back.
						for t := range tile {
							tile[t] = 0
						}
						microKern(kcEff, apanel, bpanel, &tile[0], nr)
						for r := 0; r < rw; r++ {
							ci := c[(i+r)*ldc+j0:]
							tr := tile[r*nr:]
							for j := 0; j < jw; j++ {
								ci[j] += tr[j]
							}
						}
					}
				}
			}
		}
	})
}

// Packing scratch is recycled across GEMM calls and workers. A-slabs
// (fixed mcBlock×kcBlock) and B buffers (sized with the whole operand,
// up to megabytes) use separate pools so a large B buffer is never
// pinned as an A slab while the next call reallocates a fresh one.
var (
	packAPool = sync.Pool{New: func() any { return new([]float32) }}
	packBPool = sync.Pool{New: func() any { return new([]float32) }}
)

func getPack(pool *sync.Pool, n int) *[]float32 {
	buf := pool.Get().(*[]float32)
	if cap(*buf) < n {
		*buf = make([]float32, n)
	}
	*buf = (*buf)[:n]
	return buf
}

// packBPanelN packs kcEff rows × nr columns of row-major B (already
// offset to the K strip) starting at column j0; columns past jw are
// zero-filled. Layout: dst[kk*nr+j].
func packBPanelN(dst, b []float32, kcEff, ldb, j0, jw int) {
	for kk := 0; kk < kcEff; kk++ {
		d := dst[kk*nr : kk*nr+nr]
		copy(d[:jw], b[kk*ldb+j0:kk*ldb+j0+jw])
		for j := jw; j < nr; j++ {
			d[j] = 0
		}
	}
}

// packBPanelT packs the same logical panel when B is stored transposed
// (n×k): logical B[kk, j0+j] lives at b[(j0+j)*ldb + p0+kk], so each
// destination column is a contiguous read along K.
func packBPanelT(dst, b []float32, kcEff, ldb, p0, j0, jw int) {
	for j := 0; j < jw; j++ {
		col := b[(j0+j)*ldb+p0:]
		for kk := 0; kk < kcEff; kk++ {
			dst[kk*nr+j] = col[kk]
		}
	}
	for j := jw; j < nr; j++ {
		for kk := 0; kk < kcEff; kk++ {
			dst[kk*nr+j] = 0
		}
	}
}

// packABlockN packs rows [i0, i0+mcEff) × K strip [p0, p0+kcEff) of
// row-major A into mr-row micro-panels: ap[ip*mr*kcEff + kk*mr + r].
// Rows past the block edge are zero-filled. Full panels interleave
// their mr source rows in one pass with contiguous stores; only a
// ragged last panel takes the row-at-a-time strided path.
func packABlockN(ap, a []float32, i0, mcEff, p0, kcEff, lda int) {
	mPanels := (mcEff + mr - 1) / mr
	for ip := 0; ip < mPanels; ip++ {
		dst := ap[ip*mr*kcEff : (ip+1)*mr*kcEff]
		if (ip+1)*mr <= mcEff {
			base := (i0+ip*mr)*lda + p0
			r0 := a[base : base+kcEff]
			r1 := a[base+lda:][:len(r0)]
			r2 := a[base+2*lda:][:len(r0)]
			r3 := a[base+3*lda:][:len(r0)]
			r4 := a[base+4*lda:][:len(r0)]
			r5 := a[base+5*lda:][:len(r0)]
			for kk := range r0 {
				d := (*[mr]float32)(dst[kk*mr:])
				d[0], d[1], d[2], d[3], d[4], d[5] = r0[kk], r1[kk], r2[kk], r3[kk], r4[kk], r5[kk]
			}
			continue
		}
		for r := 0; r < mr; r++ {
			gr := ip*mr + r
			if gr >= mcEff {
				for kk := 0; kk < kcEff; kk++ {
					dst[kk*mr+r] = 0
				}
				continue
			}
			src := a[(i0+gr)*lda+p0:]
			for kk := 0; kk < kcEff; kk++ {
				dst[kk*mr+r] = src[kk]
			}
		}
	}
}

// packABlockT packs the same logical block when A is stored transposed
// (k×m): logical A[i, kk] lives at a[kk*lda + i], so each K step reads
// mr contiguous elements — one mr-float run copy for a full panel.
func packABlockT(ap, a []float32, i0, mcEff, p0, kcEff, lda int) {
	mPanels := (mcEff + mr - 1) / mr
	for ip := 0; ip < mPanels; ip++ {
		dst := ap[ip*mr*kcEff:]
		base := i0 + ip*mr
		rw := min(mr, mcEff-ip*mr)
		if rw == mr {
			for kk := 0; kk < kcEff; kk++ {
				s := (*[mr]float32)(a[(p0+kk)*lda+base:])
				d := (*[mr]float32)(dst[kk*mr:])
				d[0], d[1], d[2], d[3], d[4], d[5] = s[0], s[1], s[2], s[3], s[4], s[5]
			}
			continue
		}
		for kk := 0; kk < kcEff; kk++ {
			src := a[(p0+kk)*lda+base:]
			d := dst[kk*mr : kk*mr+mr]
			for r := 0; r < rw; r++ {
				d[r] = src[r]
			}
			for r := rw; r < mr; r++ {
				d[r] = 0
			}
		}
	}
}

// zeroC implements the k==0 degenerate case: C = 0·A·B.
func zeroC(c []float32, m, n, ldc int, acc bool) {
	if acc {
		return
	}
	for i := 0; i < m; i++ {
		ci := c[i*ldc : i*ldc+n]
		for j := range ci {
			ci[j] = 0
		}
	}
}

// rowsGrain converts the per-row FLOP cost into a row-count grain.
func rowsGrain(k, n int) int {
	perRow := k * n
	if perRow <= 0 {
		return 1 << 30
	}
	g := gemmGrainFlops / perRow
	if g < 1 {
		g = 1
	}
	return g
}

// checkGEMMLd validates buffer lengths against shapes and leading
// dimensions for the given variant (A is stored k×m for TA, B is
// stored n×k for TB).
func checkGEMMLd(lc, la, lb, m, k, n, lda, ldb, ldc int, op gemmOp, name string) {
	if m <= 0 || n <= 0 {
		return
	}
	aRows, aCols := m, k
	if op == opTA {
		aRows, aCols = k, m
	}
	bRows, bCols := k, n
	if op == opTB {
		bRows, bCols = n, k
	}
	if lda < aCols || ldb < bCols || ldc < n {
		panic(fmt.Sprintf("tensor: %s leading dims too small (lda %d<%d, ldb %d<%d, ldc %d<%d)",
			name, lda, aCols, ldb, bCols, ldc, n))
	}
	wc := (m-1)*ldc + n
	wa := (aRows-1)*lda + aCols
	wb := (bRows-1)*ldb + bCols
	if k <= 0 {
		wa, wb = 0, 0
	}
	if lc < wc || la < wa || lb < wb {
		panic(fmt.Sprintf("tensor: %s buffer too small (c %d<%d, a %d<%d, b %d<%d)", name, lc, wc, la, wa, lb, wb))
	}
}

// axpy computes y += alpha*x over equal-length slices. Unrolled by four
// to expose instruction-level parallelism to the compiler.
func axpy(alpha float32, x, y []float32) {
	n := len(y)
	_ = x[n-1]
	i := 0
	for ; i+4 <= n; i += 4 {
		y[i] += alpha * x[i]
		y[i+1] += alpha * x[i+1]
		y[i+2] += alpha * x[i+2]
		y[i+3] += alpha * x[i+3]
	}
	for ; i < n; i++ {
		y[i] += alpha * x[i]
	}
}

// dot returns the inner product of equal-length slices, with four
// independent accumulators to break the dependency chain.
func dot(x, y []float32) float32 {
	n := len(x)
	var s0, s1, s2, s3 float32
	i := 0
	for ; i+4 <= n; i += 4 {
		s0 += x[i] * y[i]
		s1 += x[i+1] * y[i+1]
		s2 += x[i+2] * y[i+2]
		s3 += x[i+3] * y[i+3]
	}
	for ; i < n; i++ {
		s0 += x[i] * y[i]
	}
	return s0 + s1 + s2 + s3
}

// Dot is the exported inner product over raw slices.
func Dot(x, y []float32) float32 {
	if len(x) != len(y) {
		panic("tensor: Dot length mismatch")
	}
	if len(x) == 0 {
		return 0
	}
	return dot(x, y)
}

// Axpy computes y += alpha*x (lengths must match).
func Axpy(alpha float32, x, y []float32) {
	if len(x) != len(y) {
		panic("tensor: Axpy length mismatch")
	}
	if len(x) == 0 {
		return
	}
	axpy(alpha, x, y)
}

// MatMulNaive is the unblocked triple loop, kept as a correctness
// reference and as the baseline for the blocking ablation benchmark.
func MatMulNaive(c, a, b []float32, m, k, n int) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float32
			for kk := 0; kk < k; kk++ {
				s += a[i*k+kk] * b[kk*n+j]
			}
			c[i*n+j] = s
		}
	}
}

// MatMulT returns C = A·B as tensors; a convenience wrapper used by
// tests and examples (the layers call the slice kernels directly).
func MatMulT(a, b *Tensor) *Tensor {
	if a.Rank() != 2 || b.Rank() != 2 || a.Dim(1) != b.Dim(0) {
		panic(fmt.Sprintf("tensor: MatMulT shape mismatch %v × %v", a.Shape(), b.Shape()))
	}
	m, k, n := a.Dim(0), a.Dim(1), b.Dim(1)
	c := New(m, n)
	MatMul(c.Data, a.Data, b.Data, m, k, n, false)
	return c
}
