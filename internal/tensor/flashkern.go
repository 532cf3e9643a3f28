package tensor

import "math"

// Panel kernels of the fused attention (attention.go). Score tiles are
// stored panel-major — nr tokens on the lanes, one row per token of the
// other axis — so every kernel here walks rows of nr contiguous floats:
//
//   - flashSoftmaxCols (forward): the online softmax down the columns
//     of a [key][nr queries] tile. Running max and exp-sum are nr-lane
//     vectors; the scale multiply, the max, the exponentials (written
//     in place) and the exp-sum are two passes over the tile, and the
//     exp(mPrev − mNew) correction is applied to the exp-sum and to
//     the Oᵀ accumulator rows before returning.
//   - flashJacobian (backward): over a [query][nr keys] strip pair
//     (scores, dP) and per-row (m, 1/l, D) triples, in place
//     s ← P = exp(scale·s − m)/l and dp ← dS = P·(dP − D)·scale.
//   - flashTranspose16: one nr×nr block transpose, the only repack of
//     a probability-sized operand left on the fused path (dS for dQ).
//
// On amd64 with AVX2+FMA these run in assembly (flashkern_amd64.s);
// the *Go functions below are the portable twins and the definition
// the assembly matches bit for bit. Max, sums and the Jacobian
// products are unfused on both sides; the exponential fuses exactly
// where EXP8 does, through fma32. Both sides compute scale·s − m as a
// rounded product followed by a subtract, which is what makes the
// backward's argument bitwise the forward's and keeps it ≤ 0 on every
// real lane.
//
// Non-finite scores are not hidden: a NaN argument yields a NaN
// exponential (and so a NaN exp-sum and output row), +Inf scores give
// Inf − Inf = NaN, and only arguments below the flush cutoff — −Inf
// included — give exact zeros.

// flashExp is the scalar lane of the kernels' exponential: the Cephes
// reduction x = n·ln2 + t, a degree-5 polynomial for e^t and 2ⁿ
// assembled into the exponent bits. The reduction and the Horner steps
// are single-rounding multiply-adds, EXP8's VFMADDs in its order; the
// other operations round each step. Arguments below expFlush give an
// exact 0 (no subnormals), NaN gives NaN. Accurate to ≲ 4e-6 relative
// on (−∞, 0], the only range real lanes produce; positive arguments
// are correct up to the float32 overflow threshold.
func flashExp(x float32) float32 {
	if x < expFlush {
		return 0
	}
	if x <= expClamp {
		x = expClamp
	}
	n := float32(float32(x*expLog2e)+expRndMag) - expRndMag
	t := fma32(n, expLn2Lo, fma32(-n, expLn2Hi, x))
	p := float32(1.9875691500e-4)
	p = fma32(p, t, 1.3981999507e-3)
	p = fma32(p, t, 8.3334519073e-3)
	p = fma32(p, t, 4.1665795894e-2)
	p = fma32(p, t, 1.6666665459e-1)
	p = fma32(p, t, 5.0000001201e-1)
	r := fma32(p, float32(t*t), t) + 1
	return r * math.Float32frombits(uint32(int32(n)+127)<<23)
}

// flashSoftmaxColsGo advances the online softmax of one nr-query panel
// by one key tile. s holds rows×nr scores (row = key, lane = query)
// and is overwritten with exp(scale·s − mNew); ml holds the running
// max (ml[:nr]) and exp-sum (ml[nr:]) per lane and is updated; every
// nr-float row of acc (the Oᵀ accumulator) is multiplied by
// exp(mPrev − mNew).
//
// The max runs in the assembly's four chains — row r feeds chain r mod 4
// up to the last whole group of four rows, chain 0 after it — folded as
// (c0 ∨ c1) ∨ (c2 ∨ c3), so that even the sign of a max tied between +0
// and −0 is the assembly's.
func flashSoftmaxColsGo(s []float32, rows int, scale float32, ml *[2 * nr]float32, acc []float32) {
	var chain [4][nr]float32
	for c := range chain {
		copy(chain[c][:], ml[:nr])
	}
	for r := 0; r < rows; r++ {
		c := &chain[0]
		if r < rows&^3 {
			c = &chain[r&3]
		}
		for lane, sv := range s[r*nr : r*nr+nr] {
			c[lane] = maxPS(scale*sv, c[lane])
		}
	}
	var mNew, alpha, sum [nr]float32
	for lane := range mNew {
		mNew[lane] = maxPS(maxPS(chain[0][lane], chain[1][lane]), maxPS(chain[2][lane], chain[3][lane]))
	}
	for lane := range alpha {
		alpha[lane] = flashExp(ml[lane] - mNew[lane])
		ml[lane] = mNew[lane]
	}
	for r := 0; r < rows; r++ {
		row := s[r*nr : r*nr+nr]
		for lane, sv := range row {
			e := flashExp(float32(scale*sv) - mNew[lane])
			row[lane] = e
			sum[lane] += e
		}
	}
	for lane := range sum {
		ml[nr+lane] = float32(alpha[lane]*ml[nr+lane]) + sum[lane]
	}
	for r := 0; r+nr <= len(acc); r += nr {
		row := acc[r : r+nr]
		for lane := range row {
			row[lane] *= alpha[lane]
		}
	}
}

// maxPS is one lane of VMAXPS: a when a > b, otherwise b (so b on a
// tie or a NaN).
func maxPS(a, b float32) float32 {
	if a > b {
		return a
	}
	return b
}

// flashJacobianGo turns rows×nr recomputed scores s (row = query,
// lane = key) into probabilities and the matching dP strip into dS, in
// place. stat holds one (m, 1/l, D) triple per row.
func flashJacobianGo(s, dp []float32, rows int, scale float32, stat []float32) {
	for r := 0; r < rows; r++ {
		m, invL, di := stat[3*r], stat[3*r+1], stat[3*r+2]
		srow := s[r*nr : r*nr+nr]
		drow := dp[r*nr : r*nr+nr]
		for lane, sv := range srow {
			p := flashExp(float32(scale*sv)-m) * invL
			srow[lane] = p
			drow[lane] = float32(p*(drow[lane]-di)) * scale
		}
	}
}

// flashTranspose16Go writes the transpose of the contiguous nr×nr
// block src into the contiguous nr×nr block dst.
func flashTranspose16Go(dst, src []float32) {
	_, _ = dst[nr*nr-1], src[nr*nr-1]
	for i := 0; i < nr; i++ {
		for j := 0; j < nr; j++ {
			dst[j*nr+i] = src[i*nr+j]
		}
	}
}
