package tensor

import (
	"math"

	"repro/internal/parallel"
)

// AdamW update kernel, the optimizer member of the elementwise family
// (see gelu.go for the family's two rules; sumsq.go is its reduction).
// One pass reads w, g, m, v and writes w, m, v, all in float32, in
// PyTorch's form with the bias corrections folded into two scalars:
//
//	g̃  = g·GScale
//	m' = β₁·m + (1−β₁)·g̃
//	v' = β₂·v + ((1−β₂)·g̃)·g̃
//	w' = w − ((Step·m') / (√v'·RBC2 + ε) + Decay·w)
//
// Every product, sum, square root and quotient above is one correctly
// rounded float32 operation, evaluated in exactly the order the
// parentheses show; the assembly (adamw_amd64.s: VSQRTPS, VDIVPS,
// separate multiplies and adds) and the scalar lane below agree bit
// for bit on every input that is not a NaN. Against the float64 form
// it replaced — lr·(m'/bc1) / (√(v'/bc2) + ε) rounded once — the update
// term differs by at most 8 ulps (seven half-ulp roundings; measured
// 4.0 over 1e-12 ≤ |g| ≤ 1e4, adamw_test.go).

// AdamWScalars are the per-step constants of one AdamW call.
type AdamWScalars struct {
	B1, C1 float32 // β₁ and 1−β₁
	B2, C2 float32 // β₂ and 1−β₂
	Step   float32 // lr / (1−β₁ᵗ)
	RBC2   float32 // 1 / √(1−β₂ᵗ)
	Eps    float32
	// Decay is the decoupled weight-decay factor lr·λ; 0 for tensors
	// excluded from decay (and for padding, which then stays exactly 0
	// under zero gradients).
	Decay float32
	// GScale multiplies every gradient on the way in — the clip factor;
	// 1 (an exact identity) when not clipping.
	GScale float32
}

// NewAdamWScalars folds step t's bias corrections (t ≥ 1) into the
// kernel's scalars, with no weight decay and no gradient scaling.
func NewAdamWScalars(lr, beta1, beta2, eps float64, t int) AdamWScalars {
	b1, b2 := float32(beta1), float32(beta2)
	return AdamWScalars{
		B1: b1, C1: 1 - b1, B2: b2, C2: 1 - b2,
		Step:   float32(lr / (1 - math.Pow(beta1, float64(t)))),
		RBC2:   float32(1 / math.Sqrt(1-math.Pow(beta2, float64(t)))),
		Eps:    float32(eps),
		GScale: 1,
	}
}

// adamwGrain keeps tensors below ~16k elements (most biases and norms)
// on the calling goroutine.
const adamwGrain = 16 * parallel.MinGrain

// AdamW applies one update to the equal-length slices w, g, m, v.
// When rounded is non-nil it additionally receives RoundBF16 of the
// updated weights — the bf16 working copy, written in the same pass.
func AdamW(w, rounded, g, m, v []float32, k *AdamWScalars) {
	checkLen2(w, g)
	checkLen3(w, m, v)
	if rounded != nil {
		checkLen2(w, rounded)
	}
	parallel.RangeGrain(len(w), adamwGrain, func(lo, hi int) {
		var r []float32
		if rounded != nil {
			r = rounded[lo:hi]
		}
		adamw(w[lo:hi], r, g[lo:hi], m[lo:hi], v[lo:hi], k)
	})
}

// adamwGo is the scalar lane — the reference the assembly is held to
// bit for bit. Every product is rounded explicitly (float32(a*b)) so
// compilers that fuse x*y+z cannot.
func adamwGo(w, rounded, g, m, v []float32, k *AdamWScalars) {
	for i, wi := range w {
		gs := float32(g[i] * k.GScale)
		m1 := float32(k.B1*m[i]) + float32(k.C1*gs)
		v1 := float32(k.B2*v[i]) + float32(float32(k.C2*gs)*gs)
		den := float32(float32(math.Sqrt(float64(v1)))*k.RBC2) + k.Eps
		wi -= float32(k.Step*m1)/den + float32(k.Decay*wi)
		m[i], v[i], w[i] = m1, v1, wi
		if rounded != nil {
			rounded[i] = F32FromBF16(BF16FromF32(wi))
		}
	}
}
