package tensor

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/parallel"
)

// The GEMM kernels use the classic blocked ("GotoBLAS") structure,
// with packing treated as what it is — a copy that only pays when the
// other dimension's panel count amortises it:
//
//   - A register-blocked mr×nr micro-kernel computes one C tile per
//     call over a kcBlock-long K strip. It addresses both operands by
//     strides (gemm_kernel.go), so it reads a packed panel or the
//     caller's matrix alike, and its write-back either stores the
//     strip's sums or adds them to C, then optionally adds a bias row.
//     The transposed variants (MatMulTA, MatMulTB) and the attention
//     tiles all run this one loop (over two rows, kern2x16, for a short
//     ragged panel); only the swapped-orientation MatMulTB below runs a
//     second, square t8×t8 tile (kern8x8) that writes C transposed. On amd64 with AVX2+FMA these are hand-written
//     assembly (gemm_kernel_amd64.s); elsewhere the portable kern6x16go,
//     kern2x16go and kern8x8go run, and each pair gives the same bits.
//     Which path a product takes depends on its shape alone, so every
//     build blocks, packs and rounds alike.
//   - The driver only multiplies. The first K strip of C = A·B stores
//     (nothing pre-zeroes C), later strips add, and the last strip's
//     write-back adds the bias of MatMulBias, so x·W + b is one pass
//     over C.
//   - A (m×k) is re-read once per nr-column panel of B. Row-major A
//     (MatMul, MatMulTB) is read in place, six row streams
//     per panel: packing it would copy each element for every
//     (row slab, K strip) to save nothing the hardware prefetcher does
//     not already give. Only a ragged bottom panel (m mod mr rows) is
//     packed, zero-padded, so the kernel never reads past A — unless it
//     has 2 or 4 rows and every B panel is nr wide (pairs2x16): then
//     it runs on its valid rows in place, two at a time. Transposed
//     A (MatMulTA, stored k×m) is packed per mcBlock×kcBlock slab by
//     each worker: in place a K step would touch a new cache line for
//     24 bytes, once per B panel.
//   - B (k×n) is re-read once per mr-row panel of A, so a packed copy
//     of B is amortised over ⌈m/mr⌉ panels.
//     Transposed B (MatMulTB) is packed, the pack being the transpose
//     (8×8 vector block transposes, transpose8), unless A has fewer
//     rows than B and only a few row panels (tbSwapped): then the
//     product runs as Cᵀ = B·Aᵀ (gemmSwapped) — B's rows read in place
//     as the A side, A packed t8 wide as the transposed B side by the
//     same block transposes, and every 8×8 tile of kern8x8 turned in
//     registers and written into C as eight vector rows. That is the
//     input-gradient GEMM dx = dy·Wᵀ at a few dozen rows, where
//     transposing the whole weight for two to six row panels cost more
//     than the product; t8 tokens to a tile wastes no lane at the 8 or
//     32 rows a rank of the 2-rank workloads multiplies.
//     Row-major B is packed into contiguous nr-wide panels when many
//     row panels reuse it or its rows are far apart (bInPlace), and
//     read in place otherwise: the weight-gradient GEMMs dW = xᵀ·dy
//     have m = In ≤ a few hundred rows against k = thousands of tokens,
//     and copying k·n floats for a few dozen uses costs more than the
//     strided reads. In place only full nr-wide panels are read; a
//     ragged last panel is still packed (zero-padded), so the kernel
//     never reads past a row of B.
//
// Work is split across the persistent pool in internal/parallel by
// contiguous row ranges of C (column ranges when C is computed
// transposed), with the grain chosen so each task is at least
// gemmGrainFlops multiply-adds. Every product, however small, takes
// this one path. Which operand is packed, which orientation and how
// the rows are split never change a result's bits: every element sees
// the same FMAs in the same k order (FMA(a, b, c) = FMA(b, a, c)), then
// the same additions.
const (
	mr = 6  // micro-kernel rows (A panel height)
	nr = 16 // micro-kernel cols (B panel width, 2×8 float32 lanes)
	t8 = 8  // the swapped path's square tile (kern8x8) and transpose block

	// kcBlock is the K strip length: an A micro-panel (mr×kcBlock
	// ≈ 6 KiB) stays L1-resident and a packed B micro-panel
	// (kcBlock×nr ≈ 16 KiB) is reused across every A panel of an
	// mcBlock slab.
	kcBlock = 256
	// mcBlock is the slab of C rows worked against one B panel before
	// moving to the next (mcBlock×kcBlock ≈ 72 KiB of A, sized for L2).
	// Must be a multiple of mr.
	mcBlock = 72
)

// The A-panel packers' full-panel fast paths (packABlockN/T) name the
// mr rows of a panel one by one.
var _ = [1]struct{}{}[mr-6]

// gemmGrainFlops is the minimum number of multiply-adds worth of work
// per parallel task when splitting a GEMM across workers; below it the
// kernel runs serially. Expressed in output rows: rows × k × n.
const gemmGrainFlops = 1 << 16

// gemmOp selects which operand is logically transposed (storage is
// always row-major; packing or the kernel's strides absorb the
// transpose).
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
	gemm(c, a, b, nil, m, k, n, k, n, n, acc, opNN, "MatMul")
}

// MatMulBias is MatMul followed by C[i][j] += bias[j] on every row —
// a fully-connected layer's x·W + b — computed in the same pass: the
// bits are those of MatMul and then the serial bias loop. A nil bias
// adds nothing; otherwise it must hold at least n values.
func MatMulBias(c, a, b, bias []float32, m, k, n int, acc bool) {
	gemm(c, a, b, bias, m, k, n, k, n, n, acc, opNN, "MatMulBias")
}

// MatMulLd is MatMul with explicit leading dimensions (row strides in
// elements) for A, B and C, so sub-matrices of larger row-major
// buffers — for example one attention head's slice of a fused
// (tokens × 3·width) projection — can be multiplied without copying.
func MatMulLd(c, a, b []float32, m, k, n, lda, ldb, ldc int, acc bool) {
	gemm(c, a, b, nil, m, k, n, lda, ldb, ldc, acc, opNN, "MatMul")
}

// MatMulTB computes C = A·Bᵀ (or C += A·Bᵀ) with A (m×k), B (n×k),
// C (m×n). When A has fewer rows than B and few row panels it runs as
// Cᵀ = B·Aᵀ, copying A instead of B; the bits are the same either way.
func MatMulTB(c, a, b []float32, m, k, n int, acc bool) {
	gemm(c, a, b, nil, m, k, n, k, k, n, acc, opTB, "MatMulTB")
}

// MatMulTBLd is MatMulTB with explicit leading dimensions.
func MatMulTBLd(c, a, b []float32, m, k, n, lda, ldb, ldc int, acc bool) {
	gemm(c, a, b, nil, m, k, n, lda, ldb, ldc, acc, opTB, "MatMulTB")
}

// MatMulTA computes C = Aᵀ·B (or C += Aᵀ·B) with A (k×m), B (k×n),
// C (m×n). Each worker owns a contiguous row range of C, so no worker
// ever writes another's rows.
func MatMulTA(c, a, b []float32, m, k, n int, acc bool) {
	gemm(c, a, b, nil, m, k, n, m, n, n, acc, opTA, "MatMulTA")
}

// MatMulTALd is MatMulTA with explicit leading dimensions.
func MatMulTALd(c, a, b []float32, m, k, n, lda, ldb, ldc int, acc bool) {
	gemm(c, a, b, nil, m, k, n, lda, ldb, ldc, acc, opTA, "MatMulTA")
}

// MatMulTARows is MatMulTA over a K axis of length k of which only the
// rows at positions pos (strictly ascending, each in [0, k)) are
// stored: A (len(pos)×m) and B (len(pos)×n) hold those rows, and every
// other row of both operands is zero. The result is bitwise MatMulTA's
// over the zero-padded (k×m) and (k×n) operands. The K strips are cut
// where the padded product cuts them, at multiples of kcBlock on the
// padded axis, so every strip's sums — and the additions that fold the
// strips into C — are the padded product's; within a strip, a zero row
// only adds ±0 to a running sum that is never −0 short of an underflow
// (kern6x16go), which leaves it unchanged. A strip holding no stored row stores or adds the
// +0 sums the kernel would. It is the weight gradient of a layer that
// ran on a subset of a batch's rows, without the zero-filled full grid.
func MatMulTARows(c, a, b []float32, pos []int, m, k, n int, acc bool) {
	const name = "MatMulTARows"
	checkGEMMLd(len(c), len(a), len(b), m, len(pos), n, m, n, n, opTA, name)
	for i, p := range pos {
		if p < 0 || p >= k || (i > 0 && p <= pos[i-1]) {
			panic(fmt.Sprintf("tensor: %s row %d at position %d: positions must ascend strictly in [0, %d)", name, i, p, k))
		}
	}
	if m <= 0 || n <= 0 {
		return
	}
	if k <= 0 {
		zeroC(c, m, n, n, acc)
		return
	}
	if pos == nil {
		pos = []int{} // a subset with no rows, not the dense axis
	}
	gemmBlocked(c, a, b, nil, m, kAxis{pad: k, pos: pos}, n, m, n, n, acc, opTA)
}

// kAxis is a product's K axis as the blocked GEMM cuts it into strips: the
// strips are kcBlock long on an axis of length pad, and pos gives the
// position on it of each row the operands hold — nil when they hold
// every row, as in every product but MatMulTARows'.
type kAxis struct {
	pad int
	pos []int
}

// denseK is the K axis of an ordinary product: k rows, all stored.
func denseK(k int) kAxis { return kAxis{pad: k} }

// rows returns the number of rows the operands hold.
func (ax kAxis) rows() int {
	if ax.pos == nil {
		return ax.pad
	}
	return len(ax.pos)
}

// strips returns the number of K strips.
func (ax kAxis) strips() int { return (ax.pad + kcBlock - 1) / kcBlock }

// strip returns the stored rows [lo, hi) of strip s: every row whose
// position lies in [s·kcBlock, (s+1)·kcBlock). A strip of a subset axis
// may be empty.
func (ax kAxis) strip(s int) (lo, hi int) {
	if ax.pos == nil {
		return s * kcBlock, min((s+1)*kcBlock, ax.pad)
	}
	return sort.SearchInts(ax.pos, s*kcBlock), sort.SearchInts(ax.pos, (s+1)*kcBlock)
}

// gemm is the prologue shared by every entry point: shape validation,
// degenerate shapes, then the blocked path, whatever the size.
func gemm(c, a, b, bias []float32, m, k, n, lda, ldb, ldc int, acc bool, op gemmOp, name string) {
	checkGEMMLd(len(c), len(a), len(b), m, k, n, lda, ldb, ldc, op, name)
	checkGEMMBias(bias, n, name)
	if m <= 0 || n <= 0 {
		return
	}
	if k <= 0 {
		zeroC(c, m, n, ldc, acc)
		addBiasRows(c, bias, m, n, ldc)
		return
	}
	gemmBlocked(c, a, b, bias, m, denseK(k), n, lda, ldb, ldc, acc, op)
}

// bInPlace is the rule for reading row-major B where it lies instead
// of packing it, from the shape alone. A packed copy of B costs a read
// and a write of k·n floats and is re-read by ⌈m/mr⌉ row panels of A,
// so it pays once enough panels share it: on the host the thresholds
// were measured on (CHANGES.md, PR 21), in place wins 10–15 % at 16
// panels, a few percent at 48–64, and loses from about a hundred. Rows
// more than bInPlaceMaxLd floats (2 KiB, the reach of the hardware's
// stride prefetch) apart lose earlier: a K strip's kcBlock panel rows
// then span more pages than the TLB holds and, at multiples of 4 KiB,
// share a handful of cache sets.
func bInPlace(m, ldb int) bool {
	return (m+mr-1)/mr <= bInPlaceMaxPanels && ldb <= bInPlaceMaxLd
}

const (
	bInPlaceMaxPanels = 48
	bInPlaceMaxLd     = 512
)

// tbSwapped is the rule for computing C = A·Bᵀ in the other
// orientation, Cᵀ = B·Aᵀ, from the shape alone. Packing B copies k·n
// floats, transposing them, for ⌈m/mr⌉ row panels of A to reuse;
// swapped, B's rows are read in place and the copy is A's k·m floats,
// reused by ⌈n/t8⌉ tiles. On the 2-core Sapphire Rapids-class VM
// the constant was measured on (one worker, k ∈ 48…768, n ∈ 48…1024;
// the TB rows of BenchmarkGEMM), the swap — then a 6×16 tile with a
// scalar transposed write-back — won ×1.2–×3.8 at up to 6 row panels
// and ×0.96–×1.7 at 8, and from 11 panels on it lost as often as it
// won.
func tbSwapped(m, n int) bool {
	return m < n && (m+mr-1)/mr <= tbSwapMaxPanels
}

const tbSwapMaxPanels = 8

// gemmBlocked is the register-blocked path shared by all three kernel
// variants: op selects how the operands are read, and B is packed or
// left in place (see the package header).
func gemmBlocked(c, a, b, bias []float32, m int, ax kAxis, n, lda, ldb, ldc int, acc bool, op gemmOp) {
	if op == opTB && tbSwapped(m, n) {
		gemmSwapped(c, a, b, bias, m, ax.pad, n, lda, ldb, ldc, acc)
		return
	}
	firstPacked := 0
	if op != opTB && bInPlace(m, ldb) {
		firstPacked = n / nr
	}
	bbuf := packB(ax, n, nr, firstPacked, func(dst []float32, p0, kcEff, j0, jw int) {
		if op == opTB {
			packBPanelT(dst, b, nr, kcEff, ldb, p0, j0, jw)
		} else {
			packBPanelN(dst, b[p0*ldb:], kcEff, ldb, j0, jw)
		}
	})
	gemmCompute(c, a, b, *bbuf, bias, m, ax, n, lda, ldb, ldc, firstPacked, acc, op)
	packBPool.Put(bbuf)
}

// gemmSwapped computes C = A·Bᵀ (+ bias) in the other orientation,
// Cᵀ = B·Aᵀ (tbSwapped). The product P = B·Aᵀ is n×m: its rows are B's
// rows, read in place as kern8x8's A side, and its columns are A's m
// rows, packed t8 wide by 8×8 transposes as the B side. kern8x8 writes
// each t8×t8 tile of P into C transposed with vector stores; only
// ragged tiles — a last panel of fewer than t8 B rows (packed,
// zero-padded, so the kernel never reads past B) or of fewer than t8
// A rows — go through a scratch tile and writeBack. The bias, indexed
// by C's column, is added in the last strip's write-back. Work is
// split over tiles of P's rows, which are column ranges of C.
func gemmSwapped(c, a, b, bias []float32, m, k, n, lda, ldb, ldc int, acc bool) {
	abuf := packB(denseK(k), m, t8, 0, func(dst []float32, p0, kcEff, j0, jw int) {
		packBPanelT(dst, a, t8, kcEff, lda, p0, j0, jw)
	})
	ap := *abuf
	jPanels := (m + t8 - 1) / t8
	grain := max(1, rowsGrain(k, m)/t8)
	parallel.RangeGrain((n+t8-1)/t8, grain, func(tlo, thi int) {
		var wp []float32
		if thi*t8 > n {
			wbuf := getPack(&packAPool, t8*kcBlock)
			defer packAPool.Put(wbuf)
			wp = *wbuf
		}
		var tile [t8 * t8]float32
		for p0 := 0; p0 < k; p0 += kcBlock {
			kcEff := min(kcBlock, k-p0)
			// The first strip stores, every other strip adds, the last
			// adds the bias after its sums.
			accStrip := acc || p0 > 0
			var stripBias []float32
			if p0+kcEff == k {
				stripBias = bias
			}
			strip := ap[p0*jPanels*t8:]
			for ti := tlo; ti < thi; ti++ {
				i := ti * t8
				rw := min(t8, n-i)
				// In place, B element (r, kk) of a full tile is
				// b[(i+r)*ldb+p0+kk] with i+t8 ≤ n: at most
				// (n-1)*ldb+k-1, inside what checkGEMMLd proved.
				wpanel, wrs := (*float32)(nil), ldb
				if rw == t8 {
					wpanel = &b[i*ldb+p0]
				} else {
					for r := 0; r < t8; r++ {
						d := wp[r*kcEff : (r+1)*kcEff]
						if r < rw {
							copy(d, b[(i+r)*ldb+p0:])
						} else {
							clear(d)
						}
					}
					wpanel, wrs = &wp[0], kcEff
				}
				var bi []float32
				if stripBias != nil {
					bi = stripBias[i:]
				}
				for jp := 0; jp < jPanels; jp++ {
					j0 := jp * t8
					jw := min(t8, m-j0)
					bpanel := &strip[jp*kcEff*t8]
					if rw == t8 && jw == t8 {
						var bias8 *float32
						if bi != nil {
							bias8 = &bi[0]
						}
						microKern8x8(kcEff, wpanel, wrs, 1, bpanel, t8, &c[j0*ldc+i], ldc, accStrip, bias8)
						continue
					}
					microKern8x8(kcEff, wpanel, wrs, 1, bpanel, t8, &tile[0], t8, false, nil)
					for j := 0; j < jw; j++ {
						writeBack(c[(j0+j)*ldc+i:], tile[j*t8:j*t8+rw], accStrip, bi)
					}
				}
			}
		}
	})
	packBPool.Put(abuf)
}

// packB packs the w-column panels firstPacked, firstPacked+1, … of a
// B of ax.rows() rows × n into pooled scratch, blocked by K strip then by
// panel: panel jp of the strip starting at row p0 lies at
// p0·np·w + (jp−firstPacked)·kcEff·w, np being the number of packed
// panels; w is nr for the micro-kernel, t8 for the swapped path.
// Panels are disjoint, so the pack runs on the pool rather than as a
// serial prefix ahead of the compute workers. The caller returns the
// buffer to packBPool.
func packB(ax kAxis, n, w, firstPacked int, packPanel func(dst []float32, p0, kcEff, j0, jw int)) *[]float32 {
	np := (n+w-1)/w - firstPacked
	bbuf := getPack(&packBPool, ax.rows()*np*w)
	bp := *bbuf
	parallel.ForGrain(ax.strips()*np, 8, func(idx int) {
		p0, p1 := ax.strip(idx / np)
		if p0 == p1 {
			return
		}
		jp := firstPacked + idx%np
		kcEff := p1 - p0
		j0 := jp * w
		packPanel(bp[p0*np*w+(jp-firstPacked)*kcEff*w:], p0, kcEff, j0, min(w, n-j0))
	})
	return bbuf
}

// gemmCompute runs the register-blocked compute loop. Panels of B
// before firstPacked are read in place from the row-major b (stride
// ldb); the rest come from bp, the layout packB produces.
func gemmCompute(c, a, b, bp, bias []float32, m int, ax kAxis, n, lda, ldb, ldc, firstPacked int, acc bool, op gemmOp) {
	nPanels := (n + nr - 1) / nr
	np := nPanels - firstPacked
	// Parallel split is over mr-row micro-panel tiles, not raw rows, so
	// every interior task boundary is micro-kernel aligned and only the
	// true bottom edge of C ever takes the partial-tile path.
	mTiles := (m + mr - 1) / mr
	grain := max(1, rowsGrain(ax.rows(), n)/mr)
	parallel.RangeGrain(mTiles, grain, func(tlo, thi int) {
		lo, hi := tlo*mr, min(thi*mr, m)
		// Packed A: the whole slab when A is transposed, otherwise only
		// a ragged bottom panel that pairs2x16 cannot run in place.
		var ap []float32
		if op == opTA || (hi%mr != 0 && !pairs2x16(hi%mr, n)) {
			abuf := getPack(&packAPool, mcBlock*kcBlock)
			defer packAPool.Put(abuf)
			ap = *abuf
		}
		var tile [mr * nr]float32
		for i0 := lo; i0 < hi; i0 += mcBlock {
			mcEff := min(mcBlock, hi-i0)
			mPanels := (mcEff + mr - 1) / mr
			for s, nStrips := 0, ax.strips(); s < nStrips; s++ {
				p0, p1 := ax.strip(s)
				kcEff := p1 - p0
				// The first strip of C = A·B stores, every other strip
				// adds; the last one adds the bias after its sums, which
				// is (C + Σ_last) + b — the order of a bias loop run
				// after the product.
				accStrip := acc || s > 0
				var stripBias []float32
				if s == nStrips-1 {
					stripBias = bias
				}
				if kcEff == 0 {
					// A strip with no stored row (MatMulTARows): its
					// sums are +0, written back as the kernel would.
					var zeros [nr]float32
					for i := i0; i < i0+mcEff; i++ {
						for j0 := 0; j0 < n; j0 += nr {
							var bj []float32
							if stripBias != nil {
								bj = stripBias[j0:]
							}
							writeBack(c[i*ldc+j0:], zeros[:min(nr, n-j0)], accStrip, bj)
						}
					}
					continue
				}
				if op == opTA {
					packABlockT(ap, a, i0, mcEff, p0, kcEff, lda)
				} else if rw := mcEff % mr; rw != 0 && !pairs2x16(rw, n) {
					packABlockN(ap, a, i0+mcEff-rw, rw, p0, kcEff, lda)
				}
				for jp := 0; jp < nPanels; jp++ {
					j0 := jp * nr
					jw := min(nr, n-j0)
					// In place, B row kk of this panel is the nr floats at
					// b[(p0+kk)*ldb+j0]: jp < firstPacked ≤ n/nr keeps
					// j0+nr ≤ n, so the last one read is at most
					// (k-1)*ldb+n-1, inside what checkGEMMLd proved.
					bpanel, bks := (*float32)(nil), nr
					if jp < firstPacked {
						bpanel, bks = &b[p0*ldb+j0], ldb
					} else {
						bpanel = &bp[p0*np*nr+(jp-firstPacked)*kcEff*nr]
					}
					var bj []float32
					if stripBias != nil {
						bj = stripBias[j0:]
					}
					for ip := 0; ip < mPanels; ip++ {
						i := i0 + ip*mr
						rw := min(mr, i0+mcEff-i)
						// In place, A element (r, kk) of a full panel is
						// a[(i+r)*lda+p0+kk] with i+mr ≤ m: at most
						// (m-1)*lda+k-1, inside what checkGEMMLd proved.
						apanel, ars, aks := (*float32)(nil), 1, mr
						switch {
						case op == opTA:
							apanel = &ap[ip*mr*kcEff]
						case rw < mr && !pairs2x16(rw, n):
							apanel = &ap[0]
						default:
							apanel, ars, aks = &a[i*lda+p0], lda, 1
						}
						var bias16 *float32
						if bj != nil {
							bias16 = &bj[0]
						}
						if rw == mr && jw == nr {
							microKernStrided(kcEff, apanel, ars, aks, bpanel, bks, &c[i*ldc+j0], ldc, accStrip, bias16)
							continue
						}
						if pairs2x16(rw, n) {
							// A ragged bottom panel of 2 or 4 rows runs
							// only its valid rows, two at a time, straight
							// into C: packed like the slab when A is
							// transposed, in place otherwise (at most
							// (m-1)*lda+k-1 again).
							for rp := 0; rp < rw; rp += 2 {
								var ar *float32
								if op == opTA {
									ar = &ap[ip*mr*kcEff+rp]
								} else {
									ar = &a[(i+rp)*lda+p0]
								}
								microKern2x16(kcEff, ar, ars, aks, bpanel, bks, &c[(i+rp)*ldc+j0], ldc, accStrip, bias16)
							}
							continue
						}
						// Edge tile: run the full-size kernel into a
						// scratch tile (packed panels are zero-padded) and
						// write the valid region back the way the kernel
						// would have.
						microKernStrided(kcEff, apanel, ars, aks, bpanel, bks, &tile[0], nr, false, nil)
						for r := 0; r < rw; r++ {
							writeBack(c[(i+r)*ldc+j0:], tile[r*nr:r*nr+jw], accStrip, bj)
						}
					}
				}
			}
		}
	})
}

// pairs2x16 is the rule for a ragged bottom panel of rw < mr rows, from
// the shape alone: when rw is even and every B panel is nr wide, the
// panel runs as rw/2 two-row kernels on its valid rows instead of one
// 6-row kernel on a zero-padded copy — at 8 rows (the encoder's tokens
// per rank of the 2-rank workloads) that computes 8 rows, not 12.
func pairs2x16(rw, n int) bool {
	return rw%2 == 0 && n%nr == 0
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

// packBPanelT packs the same logical panel, w columns wide (a multiple
// of t8: nr for the micro-kernel, t8 for the swapped path), when B is
// stored transposed (n×k): logical B[kk, j0+j] lives at
// b[(j0+j)*ldb + p0+kk], and dst[kk*w+j] receives it. Every whole
// t8-column group is packed by 8×8 block transposes over the first
// kcEff rounded down to t8 K steps; the rest — those groups' last K
// steps, a partial group's columns, and the zeros past jw — is filled
// one destination row at a time.
func packBPanelT(dst, b []float32, w, kcEff, ldb, p0, j0, jw int) {
	g8, k8 := jw&^(t8-1), kcEff&^(t8-1)
	for g := 0; g < g8; g += t8 {
		src := b[(j0+g)*ldb+p0:]
		for kk := 0; kk < k8; kk += t8 {
			transpose8(dst[kk*w+g:], w, src[kk:], ldb)
		}
	}
	kk := 0
	if g8 == w {
		kk = k8
	}
	for ; kk < kcEff; kk++ {
		row := dst[kk*w : kk*w+w]
		j := 0
		if kk < k8 {
			j = g8
		}
		for i := (j0+j)*ldb + p0 + kk; j < jw; j, i = j+1, i+ldb {
			row[j] = b[i]
		}
		if jw < w {
			clear(row[jw:])
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

// addBiasRows adds bias to rows rows of c (stride ldc, n wide); a nil
// bias adds nothing. It is the bias step of the k==0 case, which runs
// no micro-kernel.
func addBiasRows(c, bias []float32, rows, n, ldc int) {
	if bias == nil {
		return
	}
	for i := 0; i < rows; i++ {
		ci := c[i*ldc : i*ldc+n]
		for j := range ci {
			ci[j] += bias[j]
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

// checkGEMMBias validates a bias row against the output width: nil
// means no bias, anything else must cover all n columns.
func checkGEMMBias(bias []float32, n int, name string) {
	if bias != nil && len(bias) < n {
		panic(fmt.Sprintf("tensor: %s bias too short (%d < n %d)", name, len(bias), n))
	}
}

// dot returns the inner product of equal-length slices, with four
// independent accumulators to break the dependency chain. Each product
// is rounded before its add (float32(a*b)), so that no compiler fuses
// the two: dot rounds alike on every GOARCH.
func dot(x, y []float32) float32 {
	n := len(x)
	var s0, s1, s2, s3 float32
	i := 0
	for ; i+4 <= n; i += 4 {
		s0 += float32(x[i] * y[i])
		s1 += float32(x[i+1] * y[i+1])
		s2 += float32(x[i+2] * y[i+2])
		s3 += float32(x[i+3] * y[i+3])
	}
	for ; i < n; i++ {
		s0 += float32(x[i] * y[i])
	}
	return s0 + s1 + s2 + s3
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
