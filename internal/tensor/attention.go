package tensor

import (
	"fmt"
	"math"
	"sync"
)

// Fused tiled attention (FlashAttention-style) on top of the packed
// GEMM micro-kernel.
//
// The materialized form of attention builds the full (T×T) score
// matrix S = scale·Q·Kᵀ per head, softmaxes it, and multiplies by V —
// three O(T²) memory sweeps over a buffer that stops fitting in cache
// right where the paper's long-sequence ViT shapes live. The fused
// kernels below stream K/V in tiles, keep the softmax online (running
// max m and exp-sum l per query, with an exp(mPrev−mNew) correction
// applied to l and the output accumulator whenever the max advances),
// and never materialize S or P. The only per-row state that survives
// the forward pass is the (m, l) pair — 2 floats per row instead of T
// — which is exactly what the backward pass needs to recompute any
// probability bitwise:
//
//	P[i][j] = exp(scale·S[i][j] − m_i) / l_i
//
// Orientation. The micro-kernel computes an mr×nr = 6×16 tile per
// call, and a head is narrow (6–64 wide) while sequences are long, so
// every product that has the head dimension d as an output axis puts
// it on the 6-row axis and puts tokens on the 16 lanes; d is only ever
// padded up to a multiple of 6. Score tiles are stored panel-major, nr
// tokens to a row, which is at once the micro-kernel's C layout with
// ldc = nr and its B-panel layout — a tile is written by one product
// and read by the next as it lies. Score tiles, whose depth is only d,
// come from microKernPanels: the micro-kernel's k loop over a run of A
// panels against one B panel, storing instead of accumulating, one
// call per strip. The products:
//
//	forward   Sᵀ  = K·Qᵀ     K rows on the row axis, queries on lanes (d is the depth)
//	          Oᵀ += Vᵀ·Pᵀ    d on the row axis, queries on lanes; B-panel = the tile
//	backward  S   = Q·Kᵀ     query rows on the row axis, keys on lanes (d is the depth)
//	          dP  = dO·Vᵀ    the same, dO and V for Q and K
//	          dVᵀ += dOᵀ·P   d on the row axis, keys on lanes; B-panel = the P strip
//	          dKᵀ += Qᵀ·dS   d on the row axis, keys on lanes; B-panel = the dS strip
//	          dQᵀ += Kᵀ·dSᵀ  d on the row axis, queries on lanes; B-panel = dSᵀ
//
// Forward: one nr-query panel at a time walks the keys in faFwdBk-row
// tiles. flashSoftmaxCols (flashkern.go) runs the online softmax down
// the tile's columns — 16 queries on the lanes, max and exp-sum as
// vectors, the 1/√d scale folded into the same two passes,
// exponentials written in place — and the tile then feeds Oᵀ += Vᵀ·Pᵀ
// unchanged. The d×nr accumulator is transposed back only on the
// final 1/l write-out.
//
// Backward: per faBq-query block and nr-key panel, the S and dP strips
// are recomputed — the same k-ordered FMA chain per score as the
// forward, and FMA(a,b,c) = FMA(b,a,c), so swapping which operand
// rides the row axis does not change a bit — turned into P and
// dS = P∘(dP − D)·scale in place by flashJacobian (one call per strip,
// per-row m, 1/l and D_i = Σ_j dO[i][j]·O[i][j] from an array), and
// consumed as B-panels by the dVᵀ and dKᵀ products. dQ needs dS with
// queries on the lanes, so each strip is also transposed in 16×16
// blocks into a dSᵀ tile — the single repack of a probability-sized
// operand on the fused path — and dQᵀ += Kᵀ·dSᵀ runs once per faBk-key
// tile. The three gradients accumulate transposed (d × T) and are
// transposed back on the final write-out.
//
// Padding. Operand panels are zero-padded, so ragged T or d costs a
// few zero multiply-adds instead of a scalar cleanup path. What a pad
// produces is never read into a kept result: key rows past a forward
// tile and query rows past a backward block sit beyond the row counts
// the softmax and the products are given, and padded lanes — queries
// in the forward, keys in the backward — only ever reach accumulator
// columns past T, because no kernel here mixes lanes. Each head is one
// serial call, so results do not depend on GOMAXPROCS.
//
// Exponentials use the float32 polynomial of flashkern.go and exp-sums
// accumulate in float32 lanes; the materialized reference keeps
// float64 math.Exp and sums, and the documented fused-vs-reference
// tolerance (see the property tests) covers that and the deferred 1/l
// normalization. Non-finite scores propagate to the output (see
// flashkern.go).
const (
	// faFwdBk is the forward key-tile height: a multiple of mr (keys
	// ride the micro-kernel's row axis there), sized so one nr-query
	// score tile stays L1-resident.
	faFwdBk = 288
	// faBq is the backward query-block height: a multiple of mr (query
	// rows are the A-panels of the S/dP recompute) and of nr (dS is
	// transposed in nr×nr blocks).
	faBq = 48
	// faBk is the backward key-tile width, a multiple of nr: the dSᵀ
	// tile (faBq×faBk) is the one probability-sized buffer kept across
	// a tile's key panels.
	faBk = 128
)

// The attention layouts lean on the micro-kernel's shape beyond what
// the GEMM driver needs: the head dimension rides the mr = 6 row axis
// in mr-row panels ([d panel][token][mr], which for d = mr is the
// operand's own row-major memory), tokens ride the nr = 16 lanes in
// [token panel][·][nr] tiles that the two-YMM panel kernels
// (flashkern.go) and the 16×16 dS transpose walk, and a backward query
// block is whole panels on both axes.
var (
	_ = [1]struct{}{}[mr-6]
	_ = [1]struct{}{}[nr-16]
	_ = [1]struct{}{}[faBq%mr+faBq%nr+faBk%nr+faFwdBk%mr]
)

// flashTileHook, when non-nil, observes every score tile before
// (stage 's') and after (stage 'p') the softmax stage: in the forward
// a [key][nr queries] tile of the query panel at i0 and key tile at
// j0, in the backward a [query][nr keys] strip of the query block at
// i0 and key panel at j0. Tests use it to hold the backward's
// recomputation to the forward bitwise; production passes nil.
type flashTileHook func(stage byte, i0, j0 int, tile []float32)

// FlashAttnFwd computes one attention head O = softmax(scale·Q·Kᵀ)·V
// without materializing the (t×t) score matrix. q, k, v are contiguous
// (t×d) row-major; the output O is written as a (t×d) tile into o with
// row stride ldo (so a head's slice of a wider activation buffer can
// be the destination, as in nn). stats receives the per-row online
// softmax statistics — stats[2i] is the running max of the scaled
// scores of row i, stats[2i+1] the exp-sum — and must have length
// ≥ 2t, or be nil when no backward follows; FlashAttnBwd consumes it
// to recompute probabilities exactly. It is FlashAttnFwdLd with
// ldqkv = d.
func FlashAttnFwd(o []float32, ldo int, q, k, v []float32, t, d int, scale float32, stats []float32) {
	flashAttnFwd(o, ldo, q, k, v, d, t, d, scale, stats, nil)
}

// FlashAttnFwdLd is FlashAttnFwd over strided operands: q, k and v are
// (t×d) tiles with row stride ldqkv, such as one head's thirds of a
// fused (t × 3W) QKV projection, read where they lie. The packs copy
// the same values whatever the stride, so the result is bitwise
// FlashAttnFwd's on contiguous copies.
func FlashAttnFwdLd(o []float32, ldo int, q, k, v []float32, ldqkv, t, d int, scale float32, stats []float32) {
	flashAttnFwd(o, ldo, q, k, v, ldqkv, t, d, scale, stats, nil)
}

func flashAttnFwd(o []float32, ldo int, q, k, v []float32, ldqkv, t, d int, scale float32, stats []float32, hook flashTileHook) {
	checkFlashAttn("FlashAttnFwd", t, d, ldqkv, q, k, v)
	if ldo < d || len(o) < (t-1)*ldo+d {
		panic("tensor: FlashAttnFwd output buffer too small")
	}
	if stats != nil && len(stats) < 2*t {
		panic("tensor: FlashAttnFwd stats buffer too small")
	}
	tPadM, tPadN, dPadM := roundUp(t, mr), roundUp(t, nr), roundUp(d, mr)
	tileRows := min(faFwdBk, tPadM)

	buf := getPack(&flashPool, tPadM*d+dPadM*t+d*tPadN+tileRows*nr+dPadM*nr)
	sc := *buf
	next := func(n int) []float32 { s := sc[:n]; sc = sc[n:]; return s }
	kA := next(tPadM * d)     // K rows as A-panels [key panel][kk][mr]: Sᵀ = K·Qᵀ
	vA := next(dPadM * t)     // Vᵀ as A-panels [d panel][key][mr]:      Oᵀ += Vᵀ·Pᵀ
	qT := next(d * tPadN)     // Q as B-panels [query panel][kk][nr]
	sT := next(tileRows * nr) // score → probability tile [key][nr queries]
	acc := next(dPadM * nr)   // Oᵀ accumulator [d][nr queries]

	packABlockN(kA, k, 0, t, 0, d, ldqkv)
	packABlockT(vA, v, 0, d, 0, t, ldqkv)
	for ip := 0; ip*nr < t; ip++ {
		packBPanelT(qT[ip*d*nr:], q, nr, d, ldqkv, 0, ip*nr, min(nr, t-ip*nr))
	}

	negInf := float32(math.Inf(-1))
	var ml [2 * nr]float32 // running max, then exp-sum, per query lane
	for i0 := 0; i0 < t; i0 += nr {
		qPanel := &qT[i0*d]
		for lane := 0; lane < nr; lane++ {
			ml[lane], ml[nr+lane] = negInf, 0
		}
		clear(acc)

		for j0 := 0; j0 < t; j0 += faFwdBk {
			jw := min(faFwdBk, t-j0)
			// Sᵀ tile: each mr-key panel of K against the query panel
			// gives mr rows of nr query lanes, stored (ldc = nr). Key
			// rows past jw in the last panel are scores against zero
			// padding; the softmax and the P·V product stop at jw and
			// never read them. Padded query lanes (zero Q columns)
			// carry finite garbage that stays in its own lane and is
			// not written out.
			tile := sT[:roundUp(jw, mr)*nr]
			microKernPanels(d, &kA[j0*d], qPanel, &tile[0], len(tile)/(mr*nr))
			if hook != nil {
				hook('s', i0, j0, tile[:jw*nr])
			}
			flashSoftmaxCols(tile, jw, scale, &ml, acc)
			if hook != nil {
				hook('p', i0, j0, tile[:jw*nr])
			}
			// The tile as it lies is the B-panel of Oᵀ += Vᵀ·Pᵀ.
			for dp := 0; dp < dPadM; dp += mr {
				microKern(jw, &vA[dp*t+j0*mr], &tile[0], &acc[dp*nr], nr)
			}
		}

		// Deferred normalization on the transposing write-out: one
		// 1/l multiply per output element, every accumulator row scaled
		// in place by the per-lane 1/l vector, then transposed into the
		// panel's rows of O. Padded lanes are scaled too and never
		// written.
		var invL [nr]float32
		for lane := range invL {
			invL[lane] = 1 / ml[nr+lane]
		}
		for j := 0; j < d; j++ {
			row := (*[nr]float32)(acc[j*nr:])
			for lane, v := range row {
				row[lane] = v * invL[lane]
			}
		}
		lanes := min(nr, t-i0)
		transposeOut(o[i0*ldo:], ldo, acc, nr, d, lanes)
		if stats != nil {
			for lane := 0; lane < lanes; lane++ {
				i := i0 + lane
				stats[2*i], stats[2*i+1] = ml[lane], ml[nr+lane]
			}
		}
	}
	flashPool.Put(buf)
}

// FlashAttnBwd computes the gradients of FlashAttnFwd. dq, dk, dv are
// written (not accumulated) as (t×d) tiles with shared row stride
// lddqkv — in nn these are the three thirds of the fused QKV gradient.
// do_ (upstream ∂L/∂O) and o (the forward output) share row stride
// ldo. q, k, v are the contiguous (t×d) forward inputs and stats the
// statistics FlashAttnFwd produced; probability tiles are recomputed
// from them, so no O(t²) state is carried between the passes. It is
// FlashAttnBwdLd with ldqkv = d.
func FlashAttnBwd(dq, dk, dv []float32, lddqkv int, do_, o []float32, ldo int, q, k, v []float32, t, d int, scale float32, stats []float32) {
	flashAttnBwd(dq, dk, dv, lddqkv, do_, o, ldo, q, k, v, d, t, d, scale, stats, nil)
}

// FlashAttnBwdLd is FlashAttnBwd with the forward inputs q, k, v read
// as strided (t×d) tiles of row stride ldqkv, as FlashAttnFwdLd reads
// them.
func FlashAttnBwdLd(dq, dk, dv []float32, lddqkv int, do_, o []float32, ldo int, q, k, v []float32, ldqkv, t, d int, scale float32, stats []float32) {
	flashAttnBwd(dq, dk, dv, lddqkv, do_, o, ldo, q, k, v, ldqkv, t, d, scale, stats, nil)
}

func flashAttnBwd(dq, dk, dv []float32, lddqkv int, do_, o []float32, ldo int, q, k, v []float32, ldqkv, t, d int, scale float32, stats []float32, hook flashTileHook) {
	checkFlashAttn("FlashAttnBwd", t, d, ldqkv, q, k, v)
	if lddqkv < d || len(dq) < (t-1)*lddqkv+d || len(dk) < (t-1)*lddqkv+d || len(dv) < (t-1)*lddqkv+d {
		panic("tensor: FlashAttnBwd gradient buffer too small")
	}
	if ldo < d || len(do_) < (t-1)*ldo+d || len(o) < (t-1)*ldo+d {
		panic("tensor: FlashAttnBwd dO/O buffer too small")
	}
	if len(stats) < 2*t {
		panic("tensor: FlashAttnBwd stats buffer too small")
	}
	tPadM, tPadN, dPadM := roundUp(t, mr), roundUp(t, nr), roundUp(d, mr)
	tileCols := min(faBk, tPadN)

	buf := getPack(&flashPool, 2*d*tPadN+2*tPadM*d+3*dPadM*t+2*faBq*nr+faBq*tileCols+3*dPadM*tPadN+3*t)
	sc := *buf
	next := func(n int) []float32 { s := sc[:n]; sc = sc[n:]; return s }
	kT := next(d * tPadN)        // K as B-panels [key panel][kk][nr]:   S  = Q·Kᵀ
	vT := next(d * tPadN)        // V as B-panels:                       dP = dO·Vᵀ
	qA := next(tPadM * d)        // Q rows as A-panels [query panel][kk][mr]
	doA := next(tPadM * d)       // dO rows as A-panels
	qTA := next(dPadM * t)       // Qᵀ as A-panels [d panel][query][mr]:  dKᵀ += Qᵀ·dS
	doTA := next(dPadM * t)      // dOᵀ as A-panels:                      dVᵀ += dOᵀ·P
	kTA := next(dPadM * t)       // Kᵀ as A-panels [d panel][key][mr]:    dQᵀ += Kᵀ·dSᵀ
	sP := next(faBq * nr)        // score → P strip [query][nr keys]
	dpP := next(faBq * nr)       // dP → dS strip
	dsT := next(faBq * tileCols) // dSᵀ tile [query panel][key][nr queries]
	dqT := next(dPadM * tPadN)   // gradient accumulators, transposed [d][token]
	dkT := next(dPadM * tPadN)
	dvT := next(dPadM * tPadN)
	rowStat := next(3 * t) // (m, 1/l, D) per query, D_i = Σ_j dO[i][j]·O[i][j]

	for jp := 0; jp*nr < t; jp++ {
		jw := min(nr, t-jp*nr)
		packBPanelT(kT[jp*d*nr:], k, nr, d, ldqkv, 0, jp*nr, jw)
		packBPanelT(vT[jp*d*nr:], v, nr, d, ldqkv, 0, jp*nr, jw)
	}
	packABlockN(qA, q, 0, t, 0, d, ldqkv)
	packABlockN(doA, do_, 0, t, 0, d, ldo)
	packABlockT(qTA, q, 0, d, 0, t, ldqkv)
	packABlockT(doTA, do_, 0, d, 0, t, ldo)
	packABlockT(kTA, k, 0, d, 0, t, ldqkv)
	for i := 0; i < t; i++ {
		rowStat[3*i] = stats[2*i]
		rowStat[3*i+1] = 1 / stats[2*i+1]
		rowStat[3*i+2] = dot(do_[i*ldo:i*ldo+d], o[i*ldo:i*ldo+d])
	}
	clear(dqT)
	clear(dkT)
	clear(dvT)

	for i0 := 0; i0 < t; i0 += faBq {
		bq := min(faBq, t-i0)
		for j0 := 0; j0 < t; j0 += faBk {
			jw := min(faBk, t-j0)
			tileStride := roundUp(jw, nr) * nr // one query panel of dsT
			for c0 := j0; c0 < j0+jw; c0 += nr {
				// Recompute the S and dP strips of this key panel: the
				// same k-ordered FMA chain per score as the forward
				// (operand roles swapped, which FMA does not see), so
				// the strip is bitwise the forward's scores. Rows past
				// bq and key lanes past t are products with zero
				// padding or stale scratch; no product below reads them
				// into a kept result (row counts stop at bq and jw, and
				// lanes never mix).
				strip, dstrip := sP[:roundUp(bq, mr)*nr], dpP[:roundUp(bq, mr)*nr]
				microKernPanels(d, &qA[i0*d], &kT[c0*d], &strip[0], len(strip)/(mr*nr))
				microKernPanels(d, &doA[i0*d], &vT[c0*d], &dstrip[0], len(dstrip)/(mr*nr))
				if hook != nil {
					hook('s', i0, c0, strip[:bq*nr])
				}
				// P from the cached (m, 1/l) and dS = P∘(dP − D)·scale,
				// both in place: the S strip becomes P, the dP strip dS.
				flashJacobian(strip, dstrip, bq, scale, rowStat[3*i0:])
				if hook != nil {
					hook('p', i0, c0, strip[:bq*nr])
				}
				// The strips as they lie are the B-panels of
				// dVᵀ += dOᵀ·P and dKᵀ += Qᵀ·dS.
				for dp := 0; dp < dPadM; dp += mr {
					microKern(bq, &doTA[dp*t+i0*mr], &strip[0], &dvT[dp*tPadN+c0], tPadN)
					microKern(bq, &qTA[dp*t+i0*mr], &dstrip[0], &dkT[dp*tPadN+c0], tPadN)
				}
				// The one repack: dS transposed into the dSᵀ tile.
				for ip := 0; ip*nr < bq; ip++ {
					flashTranspose16(dsT[ip*tileStride+(c0-j0)*nr:], dpP[ip*nr*nr:])
				}
			}
			// dQᵀ += Kᵀ·dSᵀ over the tile's jw keys.
			for ip := 0; ip*nr < bq; ip++ {
				for dp := 0; dp < dPadM; dp += mr {
					microKern(jw, &kTA[dp*t+j0*mr], &dsT[ip*tileStride], &dqT[dp*tPadN+i0+ip*nr], tPadN)
				}
			}
		}
	}

	transposeOut(dq, lddqkv, dqT, tPadN, d, t)
	transposeOut(dk, lddqkv, dkT, tPadN, d, t)
	transposeOut(dv, lddqkv, dvT, tPadN, d, t)
	flashPool.Put(buf)
}

// transposeOut writes dst[c·ldd + r] = src[r·lds + c] for r < rows and
// c < cols: the write-outs that turn a transposed (d × tokens)
// accumulator back into row-major token rows. Whole 8×8 blocks go
// through transpose8 and the ragged edges element by element; each
// element is one copy either way.
func transposeOut(dst []float32, ldd int, src []float32, lds, rows, cols int) {
	r8, c8 := rows&^(t8-1), cols&^(t8-1)
	for r := 0; r < r8; r += t8 {
		for c := 0; c < c8; c += t8 {
			transpose8(dst[c*ldd+r:], ldd, src[r*lds+c:], lds)
		}
	}
	for c := 0; c < cols; c++ {
		r0 := r8
		if c >= c8 {
			r0 = 0
		}
		drow := dst[c*ldd : c*ldd+rows]
		for r := r0; r < rows; r++ {
			drow[r] = src[r*lds+c]
		}
	}
}

// flashPool recycles the fused-attention packing/accumulator scratch
// across calls and heads, like the GEMM packing pools.
var flashPool = sync.Pool{New: func() any { return new([]float32) }}

func checkFlashAttn(name string, t, d, ldqkv int, q, k, v []float32) {
	if t <= 0 || d <= 0 || ldqkv < d {
		panic(fmt.Sprintf("tensor: %s invalid shape t=%d d=%d ldqkv=%d", name, t, d, ldqkv))
	}
	if n := (t-1)*ldqkv + d; len(q) < n || len(k) < n || len(v) < n {
		panic("tensor: " + name + " q/k/v buffer too small")
	}
}

func roundUp(x, m int) int { return (x + m - 1) / m * m }
