package tensor

import (
	"math"

	"repro/internal/parallel"
)

// Elementwise kernel family: GELU forward/backward here, the
// LayerNorm kernels in layernorm.go, and the optimizer phase — the
// AdamW update in adamw.go with its Σg² reduction (and Scale) in
// sumsq.go. On amd64 with AVX2 the bodies run eight lanes at a time in
// assembly (gelu_amd64.s, layernorm_amd64.s, adamw_amd64.s,
// sumsq_amd64.s); elsewhere (or with -tags purego) the scalar lane
// functions run. Two rules hold for every kernel in the family:
//
//   - Chunk independence. Every element (every row, for LayerNorm)
//     goes through the same arithmetic wherever a caller —
//     parallel.Range included — cuts the buffer, so results do not
//     depend on GOMAXPROCS, slice offset or length. GELU's ragged
//     tails run the 8-lane body on a zero-padded stack buffer, never
//     a different scalar formula; LayerNorm rows and AdamW tails the
//     assembly does not take run the scalar lanes, which the next
//     rule makes the same bits. The two reductions differ in what a
//     cut may be. LayerNorm reduces a row, which no caller ever
//     splits, so eight float32 lanes by column folded in a fixed tree
//     are cut-independent already. Σg² reduces the whole parameter
//     space, which its callers do split — per parameter in
//     nn.GradL2Norm, per owned span in train — and must give both
//     walks the same bits: its eight lanes are float64 (every float32
//     square is exact there, so a lane depends only on which elements
//     reach it in which order) and keyed by flat index mod 8 rather
//     than by position in the slice handed in, folded once in the
//     same tree.
//   - Twin equality. The assembly uses separate multiplies and adds
//     (no FMA contraction) in the same order as the scalar lanes, and
//     the scalar lanes round every product explicitly (float32(a*b))
//     so compilers that fuse x*y+z cannot; the two are bitwise equal
//     on every input that is not a NaN.
//
// GELU is the tanh approximation rewritten through the logistic
// function, gelu(x) = x·σ(2u) with u = √(2/π)·(x + 0.044715·x³),
// which is algebraically 0.5·x·(1 + tanh u) without the cancellation
// near tanh u = −1. σ is evaluated from q = exp(−|2u|) ∈ [0, 1] (the
// Cephes reduction of flashkern.go, argument never positive so it can
// not overflow) as r = 1/(1+q) for x ≥ 0 and q·r for x < 0: one exp
// and one divide per lane, all in float32.

const (
	geluC0 float32 = -1.5957691216057308  // −2·√(2/π)
	geluC1 float32 = -0.07135481627247547 // −2·√(2/π)·0.044715
	geluK0 float32 = 1.5957691216057308   // d(2u)/dx at 0
	geluK1 float32 = 0.2140644488174264   // 3·0.044715·2·√(2/π)
	// geluX2Max caps x² so the polynomial factors stay finite for every
	// finite x; σ saturated (q flushed to 0) long before |x| = 100.
	geluX2Max float32 = 1e4

	expLog2e  float32 = 1.4426950408889634
	expLn2Hi  float32 = 0.693359375
	expLn2Lo  float32 = 2.12194440e-4
	expFlush  float32 = -87.33655 // below this e^a is flushed to 0
	expClamp  float32 = -87       // keeps 2ⁿ a normal number
	expRndMag float32 = 12582912  // 1.5·2²³: (z+M)−M rounds z to nearest-even
)

// GELU computes dst[i] = gelu(x[i]) (tanh approximation) over
// equal-length slices; dst may alias x. NaN and ±Inf inputs produce
// non-finite outputs.
func GELU(dst, x []float32) {
	checkLen2(dst, x)
	parallel.Range(len(x), func(lo, hi int) {
		geluFwd(dst[lo:hi], x[lo:hi])
	})
}

// GELUBackward computes dx[i] = dy[i]·gelu′(x[i]) over equal-length
// slices, recomputing σ from x exactly as GELU does (nothing is cached
// between the passes); dx may alias dy.
func GELUBackward(dx, dy, x []float32) {
	checkLen3(dx, dy, x)
	parallel.Range(len(x), func(lo, hi int) {
		geluBwd(dx[lo:hi], dy[lo:hi], x[lo:hi])
	})
}

// expNeg returns e^a for a ≤ 0 with the vector kernels' exact op
// sequence: arguments below expFlush (and NaN) give 0, n is rounded to
// nearest-even, and the polynomial is unfused Horner.
func expNeg(a float32) float32 {
	if !(a >= expFlush) {
		return 0
	}
	if !(a > expClamp) {
		a = expClamp
	}
	n := float32(float32(a*expLog2e)+expRndMag) - expRndMag
	t := float32(a-float32(n*expLn2Hi)) + float32(n*expLn2Lo)
	p := float32(1.9875691500e-4)
	p = float32(p*t) + 1.3981999507e-3
	p = float32(p*t) + 8.3334519073e-3
	p = float32(p*t) + 4.1665795894e-2
	p = float32(p*t) + 1.6666665459e-1
	p = float32(p*t) + 5.0000001201e-1
	r := float32(float32(p*float32(t*t))+t) + 1
	return r * math.Float32frombits(uint32(int32(n)+127)<<23)
}

// geluSigma returns σ(2u) for one lane together with the pieces the
// derivative reuses: r = 1/(1+q), g = q·r (so σ(1−σ) = g·r) and the
// capped x².
func geluSigma(x float32) (sig, g, r, x2 float32) {
	x2 = x * x
	if !(x2 < geluX2Max) {
		x2 = geluX2Max
	}
	a := float32(float32(geluC1*x2)+geluC0) * x
	q := expNeg(math.Float32frombits(math.Float32bits(a) | 1<<31)) // −|a|
	r = 1 / (1 + q)
	g = q * r
	if math.Float32bits(x)>>31 != 0 {
		return g, g, r, x2
	}
	return r, g, r, x2
}

// geluFwdGo and geluBwdGo are the portable scalar loops — the
// reference the amd64 assembly is held to bit-for-bit by the property
// tests.
func geluFwdGo(dst, x []float32) {
	for i, v := range x {
		sig, _, _, _ := geluSigma(v)
		dst[i] = v * sig
	}
}

// gelu′(x) = σ + x·σ(1−σ)·d(2u)/dx, evaluated as σ + ((g·r)·x)·w with
// the saturating factor first so a flushed q zeroes the term before
// the polynomial factor w can grow.
func geluBwdGo(dx, dy, x []float32) {
	for i, v := range x {
		sig, g, r, x2 := geluSigma(v)
		w := float32(geluK1*x2) + geluK0
		h := float32(float32(float32(g*r)*v) * w)
		dx[i] = dy[i] * (sig + h)
	}
}
