package tensor

import (
	"fmt"
	"math"
	"sync"
)

// Fused tiled attention (FlashAttention-style) on top of the packed
// GEMM micro-kernels.
//
// The materialized attention path forms the full (T×T) score matrix
// S = scale·Q·Kᵀ per head, softmaxes it, and multiplies by V — three
// O(T²) memory sweeps over a buffer that stops fitting in cache right
// where the paper's long-sequence ViT shapes live. The fused kernels
// below stream K/V in faBk-row tiles against faBq-row blocks of Q,
// maintain the softmax online (running row max m and exp-sum l, with
// an exp(mPrev−mNext) correction applied to the output accumulator
// whenever the max advances), and never materialize S or P: score
// tiles live in a (faBq×faBk) scratch tile and the exponentiated
// probabilities are written directly into the packed A-panel layout
// that the P·V micro-kernel consumes. The only per-row state that
// survives the forward pass is the (m, l) statistics pair — 2 floats
// per row instead of T — which is exactly what the backward pass needs
// to recompute any probability tile bitwise:
//
//	P[i][j] = exp(scale·S[i][j] − m_i) / l_i
//
// The backward kernel re-runs the S tiles (same packing, same
// micro-kernel, so the recomputation matches the forward tile
// bitwise), forms dP = dO·Vᵀ tile-wise, applies the softmax Jacobian
// dS = P∘(dP − D)·scale with D_i = Σ_j dO[i][j]·O[i][j], and
// accumulates the three gradient GEMMs (dQ += dS·K, dK += dSᵀ·Q,
// dV += Pᵀ·dO) per tile. The 1/√d scale is folded into the online
// max/exp pass — there is no separate O(T²) scaling sweep anywhere on
// the fused path.
//
// All tile products run through the same packed panels and mr×nr
// micro-kernel as the blocked GEMM driver (gemm.go): K and V are
// packed once per call into the B-panel layouts each product needs,
// Q/dO blocks and probability tiles into A-panels. Panels are
// zero-padded, so edge tiles of odd T or d cost only a few zero
// multiply-adds instead of a scalar cleanup path. Exponentials use the
// float32 polynomial expf32 (fastexp.go); the materialized reference
// path keeps float64 math.Exp, and the documented fused-vs-reference
// tolerance (see the property tests) covers both the exp swap and the
// deferred 1/l normalization.
const (
	// faBq is the Q-block height: a multiple of the micro-kernel's mr
	// so every interior panel boundary is kernel-aligned.
	faBq = 48
	// faBk is the K/V tile width: a multiple of nr, sized so one
	// (faBq×faBk) score tile plus the packed K/V panels it reads stay
	// L1/L2-resident.
	faBk = 128
)

// FlashAttnFwd computes one attention head O = softmax(scale·Q·Kᵀ)·V
// without materializing the (t×t) score matrix. q, k, v are contiguous
// (t×d) row-major; the output O is written as a (t×d) tile into o with
// row stride ldo (so a head's slice of a wider activation buffer can
// be the destination, as in nn). stats receives the per-row online
// softmax statistics — stats[2i] is the running max of the scaled
// scores of row i, stats[2i+1] the exp-sum — and must have length
// ≥ 2t; FlashAttnBwd consumes it to recompute probabilities exactly.
func FlashAttnFwd(o []float32, ldo int, q, k, v []float32, t, d int, scale float32, stats []float32) {
	checkFlashAttn("FlashAttnFwd", t, d, q, k, v)
	if ldo < d || len(o) < (t-1)*ldo+d {
		panic("tensor: FlashAttnFwd output buffer too small")
	}
	if len(stats) < 2*t {
		panic("tensor: FlashAttnFwd stats buffer too small")
	}
	tPadN := roundUp(t, nr)
	dPadN := roundUp(d, nr)
	bqCap := faBq
	if t < faBq {
		bqCap = roundUp(t, mr)
	}

	buf := getPack(&flashPool, d*tPadN+t*dPadN+bqCap*d+2*bqCap*faBk+bqCap*dPadN)
	sc := *buf
	next := func(n int) []float32 { s := sc[:n]; sc = sc[n:]; return s }
	kT := next(d * tPadN) // K in B-panel-T layout for S = Q·Kᵀ
	vN := next(t * dPadN) // V in per-tile B-panel-N layout for O += P·V
	qA := next(bqCap * d) // current Q block in A-panel layout
	pA := next(bqCap * faBk)
	sT := next(bqCap * faBk)
	acc := next(bqCap * dPadN)

	for jp := 0; jp*nr < t; jp++ {
		packBPanelT(kT[jp*d*nr:], k, d, d, 0, jp*nr, min(nr, t-jp*nr))
	}
	for j0 := 0; j0 < t; j0 += faBk {
		jw := min(faBk, t-j0)
		for jp := 0; jp*nr < dPadN; jp++ {
			packBPanelN(vN[j0*dPadN+jp*jw*nr:], v[j0*d:], jw, d, jp*nr, min(nr, d-jp*nr))
		}
	}

	var mRow [faBq]float32
	var lRow [faBq]float64
	var eRow [faBk]float32
	for i0 := 0; i0 < t; i0 += faBq {
		bq := min(faBq, t-i0)
		bqPad := roundUp(bq, mr)
		mPanels := bqPad / mr
		packABlockN(qA, q, i0, bq, 0, d, d)
		negInf := float32(math.Inf(-1))
		for r := 0; r < bq; r++ {
			mRow[r] = negInf
			lRow[r] = 0
		}
		clear(acc[:bqPad*dPadN])

		for j0 := 0; j0 < t; j0 += faBk {
			jw := min(faBk, t-j0)
			jwPadN := roundUp(jw, nr)
			clear(sT[:bqPad*faBk])
			for jp := 0; jp < jwPadN/nr; jp++ {
				bpanel := &kT[(j0/nr+jp)*d*nr]
				for ip := 0; ip < mPanels; ip++ {
					microKern(d, &qA[ip*mr*d], bpanel, &sT[ip*mr*faBk+jp*nr], faBk)
				}
			}
			// Online softmax over the tile: advance the row max, write
			// exp(scale·s − m) straight into P's packed A-panels, and
			// rescale the accumulator by exp(mPrev − mCur) when the max
			// moved. The scale multiply happens inside the vectorized
			// max and exp passes — no separate sweep. (Rounding is
			// monotone, so scale·max(s) = max(scale·s) for scale ≥ 0.)
			for r := 0; r < bq; r++ {
				srow := sT[r*faBk : r*faBk+jw]
				mPrev := mRow[r]
				mCur := mPrev
				if scale >= 0 {
					if c := scale * maxFloat32(srow); c > mCur {
						mCur = c
					}
				} else {
					for _, sv := range srow {
						if v := scale * sv; v > mCur {
							mCur = v
						}
					}
				}
				expScaledSub(eRow[:jw], srow, scale, mCur)
				pan := pA[(r/mr)*mr*jw:]
				rr := r % mr
				var rowSum float64
				for j, e := range eRow[:jw] {
					pan[j*mr+rr] = e
					rowSum += float64(e)
				}
				if mCur > mPrev {
					alpha := expf32(mPrev - mCur)
					lRow[r] = float64(alpha)*lRow[r] + rowSum
					mRow[r] = mCur
					//statgate:allow floateq — exact: alpha is expf32(0) == 1 when the running max did not move
					if alpha != 1 {
						arow := acc[r*dPadN : r*dPadN+d]
						for j := range arow {
							arow[j] *= alpha
						}
					}
				} else {
					lRow[r] += rowSum
				}
			}
			for r := bq; r < bqPad; r++ {
				pan := pA[(r/mr)*mr*jw:]
				rr := r % mr
				for j := 0; j < jw; j++ {
					pan[j*mr+rr] = 0
				}
			}
			for jp := 0; jp < dPadN/nr; jp++ {
				bpanel := &vN[j0*dPadN+jp*jw*nr]
				for ip := 0; ip < mPanels; ip++ {
					microKern(jw, &pA[ip*mr*jw], bpanel, &acc[ip*mr*dPadN+jp*nr], dPadN)
				}
			}
		}

		// Deferred normalization: one 1/l multiply per output element.
		for r := 0; r < bq; r++ {
			invL := 1 / float32(lRow[r])
			orow := o[(i0+r)*ldo : (i0+r)*ldo+d]
			arow := acc[r*dPadN:]
			for j := range orow {
				orow[j] = arow[j] * invL
			}
			stats[2*(i0+r)] = mRow[r]
			stats[2*(i0+r)+1] = float32(lRow[r])
		}
	}
	flashPool.Put(buf)
}

// FlashAttnBwd computes the gradients of FlashAttnFwd. dq, dk, dv are
// written (not accumulated) as (t×d) tiles with shared row stride
// ldqkv — in nn these are the three thirds of the fused QKV gradient.
// do_ (upstream ∂L/∂O) and o (the forward output) share row stride
// ldo. q, k, v are the contiguous (t×d) forward inputs and stats the
// statistics FlashAttnFwd produced; probability tiles are recomputed
// from them, so no O(t²) state is carried between the passes.
func FlashAttnBwd(dq, dk, dv []float32, ldqkv int, do_, o []float32, ldo int, q, k, v []float32, t, d int, scale float32, stats []float32) {
	checkFlashAttn("FlashAttnBwd", t, d, q, k, v)
	if ldqkv < d || len(dq) < (t-1)*ldqkv+d || len(dk) < (t-1)*ldqkv+d || len(dv) < (t-1)*ldqkv+d {
		panic("tensor: FlashAttnBwd gradient buffer too small")
	}
	if ldo < d || len(do_) < (t-1)*ldo+d || len(o) < (t-1)*ldo+d {
		panic("tensor: FlashAttnBwd dO/O buffer too small")
	}
	if len(stats) < 2*t {
		panic("tensor: FlashAttnBwd stats buffer too small")
	}
	tPadN := roundUp(t, nr)
	dPadN := roundUp(d, nr)
	bqCap := faBq
	if t < faBq {
		bqCap = roundUp(t, mr)
	}
	tPadMr := roundUp(t, mr)
	tAccRows := tPadMr + mr // micro-kernel row spill past a tile edge
	tileRowsPad := roundUp(min(faBk, t), mr)

	need := 2*d*tPadN + t*dPadN + 2*bqCap*d + 2*bqCap*dPadN +
		2*bqCap*faBk + 2*tileRowsPad*bqCap + bqCap*faBk +
		3*tAccRows*dPadN + t
	buf := getPack(&flashPool, need)
	sc := *buf
	next := func(n int) []float32 { s := sc[:n]; sc = sc[n:]; return s }
	kT := next(d * tPadN)      // K panels for recomputing S
	vT := next(d * tPadN)      // V panels for dP = dO·Vᵀ
	kN := next(t * dPadN)      // K panels for dQ += dS·K
	qA := next(bqCap * d)      // Q block A-panels (S recompute)
	doA := next(bqCap * d)     // dO block A-panels (dP)
	qB := next(bqCap * dPadN)  // Q block B-panels (dK += dSᵀ·Q)
	doB := next(bqCap * dPadN) // dO block B-panels (dV += Pᵀ·dO)
	sT := next(bqCap * faBk)
	dpT := next(bqCap * faBk)
	pTA := next(tileRowsPad * bqCap)
	dsTA := next(tileRowsPad * bqCap)
	dsA := next(bqCap * faBk)
	dqAcc := next(tAccRows * dPadN)
	dkAcc := next(tAccRows * dPadN)
	dvAcc := next(tAccRows * dPadN)
	dVec := next(t) // D_i = Σ_j dO[i][j]·O[i][j]

	for jp := 0; jp*nr < t; jp++ {
		jw := min(nr, t-jp*nr)
		packBPanelT(kT[jp*d*nr:], k, d, d, 0, jp*nr, jw)
		packBPanelT(vT[jp*d*nr:], v, d, d, 0, jp*nr, jw)
	}
	for j0 := 0; j0 < t; j0 += faBk {
		jw := min(faBk, t-j0)
		for jp := 0; jp*nr < dPadN; jp++ {
			packBPanelN(kN[j0*dPadN+jp*jw*nr:], k[j0*d:], jw, d, jp*nr, min(nr, d-jp*nr))
		}
	}
	for i := 0; i < t; i++ {
		dVec[i] = dot(do_[i*ldo:i*ldo+d], o[i*ldo:i*ldo+d])
	}
	clear(dqAcc)
	clear(dkAcc)
	clear(dvAcc)

	for i0 := 0; i0 < t; i0 += faBq {
		bq := min(faBq, t-i0)
		bqPad := roundUp(bq, mr)
		mPanels := bqPad / mr
		packABlockN(qA, q, i0, bq, 0, d, d)
		packABlockN(doA, do_, i0, bq, 0, d, ldo)
		for jp := 0; jp*nr < dPadN; jp++ {
			jwd := min(nr, d-jp*nr)
			packBPanelN(qB[jp*bq*nr:], q[i0*d:], bq, d, jp*nr, jwd)
			packBPanelN(doB[jp*bq*nr:], do_[i0*ldo:], bq, ldo, jp*nr, jwd)
		}

		for j0 := 0; j0 < t; j0 += faBk {
			jw := min(faBk, t-j0)
			jwPadN := roundUp(jw, nr)
			jwPadMr := roundUp(jw, mr)
			clear(sT[:bqPad*faBk])
			clear(dpT[:bqPad*faBk])
			for jp := 0; jp < jwPadN/nr; jp++ {
				kPanel := &kT[(j0/nr+jp)*d*nr]
				vPanel := &vT[(j0/nr+jp)*d*nr]
				for ip := 0; ip < mPanels; ip++ {
					microKern(d, &qA[ip*mr*d], kPanel, &sT[ip*mr*faBk+jp*nr], faBk)
					microKern(d, &doA[ip*mr*d], vPanel, &dpT[ip*mr*faBk+jp*nr], faBk)
				}
			}
			// Recompute P from the cached (m, l) statistics — the S
			// tile above is bitwise the forward tile (same packing,
			// same kernel) — and form dS = P∘(dP − D)·scale, both in
			// place and eight lanes at a time: the S tile becomes P, the
			// dP tile becomes dS.
			for r := 0; r < bq; r++ {
				i := i0 + r
				prow := sT[r*faBk : r*faBk+jw]
				expScaledSub(prow, prow, scale, stats[2*i])
				softmaxJacobianRow(prow, dpT[r*faBk:r*faBk+jw], 1/stats[2*i+1], dVec[i], scale)
			}
			// Pack the tiles into the A-panel layouts their gradient
			// products consume, zero-padding ragged edges: P transposed
			// (dV += Pᵀ·dO), dS both transposed (dK += dSᵀ·Q) and
			// normal (dQ += dS·K).
			packABlockT(pTA, sT, 0, jw, 0, bq, faBk)
			packABlockT(dsTA, dpT, 0, jw, 0, bq, faBk)
			packABlockN(dsA, dpT, 0, bq, 0, jw, faBk)

			for jp := 0; jp < dPadN/nr; jp++ {
				// dQ_blk += dS·K_tile
				bpanel := &kN[j0*dPadN+jp*jw*nr]
				for ip := 0; ip < mPanels; ip++ {
					microKern(jw, &dsA[ip*mr*jw], bpanel, &dqAcc[(i0+ip*mr)*dPadN+jp*nr], dPadN)
				}
				// dV_tile += Pᵀ·dO_blk and dK_tile += dSᵀ·Q_blk
				for ip := 0; ip < jwPadMr/mr; ip++ {
					microKern(bq, &pTA[ip*mr*bq], &doB[jp*bq*nr], &dvAcc[(j0+ip*mr)*dPadN+jp*nr], dPadN)
					microKern(bq, &dsTA[ip*mr*bq], &qB[jp*bq*nr], &dkAcc[(j0+ip*mr)*dPadN+jp*nr], dPadN)
				}
			}
		}
	}

	for i := 0; i < t; i++ {
		copy(dq[i*ldqkv:i*ldqkv+d], dqAcc[i*dPadN:i*dPadN+d])
		copy(dk[i*ldqkv:i*ldqkv+d], dkAcc[i*dPadN:i*dPadN+d])
		copy(dv[i*ldqkv:i*ldqkv+d], dvAcc[i*dPadN:i*dPadN+d])
	}
	flashPool.Put(buf)
}

// flashPool recycles the fused-attention packing/accumulator scratch
// across calls and heads, like the GEMM packing pools.
var flashPool = sync.Pool{New: func() any { return new([]float32) }}

func checkFlashAttn(name string, t, d int, q, k, v []float32) {
	if t <= 0 || d <= 0 {
		panic(fmt.Sprintf("tensor: %s invalid shape t=%d d=%d", name, t, d))
	}
	if len(q) < t*d || len(k) < t*d || len(v) < t*d {
		panic("tensor: " + name + " q/k/v buffer too small")
	}
}

func roundUp(x, m int) int { return (x + m - 1) / m * m }
