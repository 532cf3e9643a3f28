package nn

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/rng"
	"repro/internal/tensor"
)

// Tolerances for fused-vs-materialized agreement at the layer level.
// The fused kernel reassociates the softmax (online rescaling, fast
// exp) and the tile-order of the reductions, so agreement is to
// rounding, not bitwise; see internal/tensor/attention_test.go for the
// kernel-level derivation of these bounds.
const (
	fusedFwdTol = 1e-3
	fusedBwdTol = 5e-3
)

func relClose(got, want, tol float32) bool {
	return math.Abs(float64(got-want)) <= float64(tol)*(1+math.Abs(float64(want)))
}

func requireClose(t *testing.T, label string, got, want []float32, tol float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d != %d", label, len(got), len(want))
	}
	for i := range got {
		if !relClose(got[i], want[i], tol) {
			t.Fatalf("%s[%d]: fused %v materialized %v", label, i, got[i], want[i])
		}
	}
}

// runAttn runs one Forward/Backward pair on a fresh layer with fixed
// weights and returns output, input gradient, and flattened parameter
// gradients. With materialized set the attention core between the two
// projections is the oracle below instead of the layer's own.
func runAttn(materialized bool, batch, tokens, width, heads int, x, dy []float32) (y, dx, grads []float32) {
	r := rng.New(42)
	a := NewMultiHeadAttention("attn", width, heads, r)
	if materialized {
		m := &materializedAttention{MultiHeadAttention: a}
		y = append([]float32(nil), m.Forward(x, batch, tokens)...)
		dx = append([]float32(nil), m.Backward(dy)...)
	} else {
		y = append([]float32(nil), a.Forward(x, batch, tokens)...)
		dx = append([]float32(nil), a.Backward(dy)...)
	}
	for _, p := range a.Params() {
		grads = append(grads, p.Grad.Data...)
	}
	return y, dx, grads
}

// materializedAttention is the reference the fused layer replaced in
// production: the same two projections around an attention core that
// forms each head's full (T×T) score matrix with the blocked GEMM
// kernels and the scale-folded softmax ops, caching the probabilities
// and the dP/dS intermediates — 3·B·H·T² floats the fused path never
// allocates.
type materializedAttention struct {
	*MultiHeadAttention
	probs, dp, ds []float32
}

func (m *materializedAttention) Forward(x []float32, batch, tokens int) []float32 {
	a := m.MultiHeadAttention
	w, h, d := a.Width, a.Heads, a.HeadDim
	a.batch, a.tokens = batch, tokens
	qkv := a.QKV.Forward(x, batch*tokens)
	bh := batch * h
	a.q, a.k, a.v = make([]float32, bh*tokens*d), make([]float32, bh*tokens*d), make([]float32, bh*tokens*d)
	a.attnOut = make([]float32, batch*tokens*w)
	m.probs = make([]float32, bh*tokens*tokens)
	scale := float32(1 / math.Sqrt(float64(d)))
	for i := 0; i < bh; i++ {
		b, hh := i/h, i%h
		q := a.q[i*tokens*d : (i+1)*tokens*d]
		k := a.k[i*tokens*d : (i+1)*tokens*d]
		v := a.v[i*tokens*d : (i+1)*tokens*d]
		a.splitHead(q, k, v, qkv[b*tokens*3*w:], hh, tokens)
		p := m.probs[i*tokens*tokens : (i+1)*tokens*tokens]
		tensor.MatMulTB(p, q, k, tokens, d, tokens, false)
		tensor.SoftmaxScaled(p, p, tokens, tokens, scale)
		tensor.MatMulLd(a.attnOut[(b*tokens)*w+hh*d:], p, v, tokens, tokens, d, tokens, d, w, false)
	}
	return a.Out.Forward(a.attnOut, batch*tokens)
}

func (m *materializedAttention) Backward(dy []float32) []float32 {
	a := m.MultiHeadAttention
	w, h, d := a.Width, a.Heads, a.HeadDim
	batch, tokens := a.batch, a.tokens
	dAttn := a.Out.Backward(dy)
	bh := batch * h
	dqkv := make([]float32, batch*tokens*3*w)
	m.dp = make([]float32, bh*tokens*tokens)
	m.ds = make([]float32, bh*tokens*tokens)
	scale := float32(1 / math.Sqrt(float64(d)))
	for i := 0; i < bh; i++ {
		b, hh := i/h, i%h
		q := a.q[i*tokens*d : (i+1)*tokens*d]
		k := a.k[i*tokens*d : (i+1)*tokens*d]
		v := a.v[i*tokens*d : (i+1)*tokens*d]
		p := m.probs[i*tokens*tokens : (i+1)*tokens*tokens]
		dp := m.dp[i*tokens*tokens : (i+1)*tokens*tokens]
		ds := m.ds[i*tokens*tokens : (i+1)*tokens*tokens]
		do := dAttn[(b*tokens)*w+hh*d:]
		dqkvH := dqkv[(b*tokens)*3*w:]
		// dV = Pᵀ·dO, dP = dO·Vᵀ, dS = softmax backward (scale folded),
		// dQ = dS·K, dK = dSᵀ·Q.
		tensor.MatMulTALd(dqkvH[2*w+hh*d:], p, do, tokens, tokens, d, tokens, w, 3*w, false)
		tensor.MatMulTBLd(dp, do, v, tokens, d, tokens, w, d, tokens, false)
		tensor.SoftmaxBackwardScaled(ds, p, dp, tokens, tokens, scale)
		tensor.MatMulLd(dqkvH[hh*d:], ds, k, tokens, tokens, d, tokens, d, 3*w, false)
		tensor.MatMulTALd(dqkvH[w+hh*d:], ds, q, tokens, tokens, d, tokens, d, 3*w, false)
	}
	return a.QKV.Backward(dqkv)
}

// TestFusedAttentionMatchesMaterialized requires the fused tiled layer
// to agree with the materialized oracle on the full layer — output,
// dL/dx, and every parameter gradient — across shapes with ragged
// tile tails and the benchmark's own small-head shapes.
func TestFusedAttentionMatchesMaterialized(t *testing.T) {
	shapes := []struct{ batch, tokens, width, heads int }{
		{1, 3, 8, 2},
		{2, 17, 24, 3},
		{1, 48, 32, 4},
		{2, 49, 16, 2},
		{1, 131, 64, 4},
		{1, 256, 48, 8}, // MAE decoder heads, d = 6
		{2, 64, 96, 8},  // masked encoder heads, d = 12
	}
	for _, s := range shapes {
		r := rng.New(uint64(s.tokens*1000 + s.width))
		x := make([]float32, s.batch*s.tokens*s.width)
		dy := make([]float32, s.batch*s.tokens*s.width)
		r.FillNormal(x, 0, 1)
		r.FillNormal(dy, 0, 1)

		yF, dxF, gF := runAttn(false, s.batch, s.tokens, s.width, s.heads, x, dy)
		yM, dxM, gM := runAttn(true, s.batch, s.tokens, s.width, s.heads, x, dy)

		requireClose(t, "y", yF, yM, fusedFwdTol)
		requireClose(t, "dx", dxF, dxM, fusedBwdTol)
		requireClose(t, "grads", gF, gM, fusedBwdTol)
	}
}

// TestInferMatchesForwardFused requires the arena inference path to be
// bitwise identical to the training forward — the invariant the
// serving equivalence tests build on.
func TestInferMatchesForwardFused(t *testing.T) {
	const batch, tokens, width, heads = 2, 29, 32, 4
	r := rng.New(7)
	a := NewMultiHeadAttention("attn", width, heads, r)
	x := make([]float32, batch*tokens*width)
	r.FillNormal(x, 0, 1)

	want := a.Forward(x, batch, tokens)
	ctx := NewInferCtx()
	got := a.Infer(ctx, x, batch, tokens)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Infer[%d] = %v, Forward = %v (must be bitwise equal)", i, got[i], want[i])
		}
	}
}

// TestAttentionAndLayerNormProcsIndependent: each head is one serial
// kernel call and each LayerNorm row one fixed reduction tree, so the
// layers' outputs and gradients are the same bits however many workers
// the pool splits them over — and Infer equals Forward at each count.
func TestAttentionAndLayerNormProcsIndependent(t *testing.T) {
	const batch, tokens, width, heads = 3, 70, 48, 8
	r := rng.New(13)
	x := make([]float32, batch*tokens*width)
	dy := make([]float32, batch*tokens*width)
	r.FillNormal(x, 0, 1)
	r.FillNormal(dy, 0, 1)

	run := func() (out [][]float32) {
		a := NewMultiHeadAttention("attn", width, heads, rng.New(5))
		ln := NewLayerNorm("ln", width)
		rng.New(6).FillNormal(ln.Gamma.Value.Data, 1, 0.1)
		h := ln.Forward(x, batch*tokens)
		y := a.Forward(h, batch, tokens)
		ctx := NewInferCtx()
		if yi := a.Infer(ctx, ln.Infer(ctx, x, batch*tokens), batch, tokens); !bitsEqual(yi, y) {
			t.Errorf("GOMAXPROCS=%d: Infer differs from Forward", runtime.GOMAXPROCS(0))
		}
		out = append(out, append([]float32(nil), y...))
		out = append(out, append([]float32(nil), ln.Backward(a.Backward(dy))...))
		for _, p := range append(a.Params(), ln.Params()...) {
			out = append(out, p.Grad.Data)
		}
		return out
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var want [][]float32
	for _, procs := range []int{1, 2, 3} {
		runtime.GOMAXPROCS(procs)
		got := run()
		if want == nil {
			want = got
			continue
		}
		for i := range got {
			if !bitsEqual(got[i], want[i]) {
				t.Fatalf("GOMAXPROCS=%d: result %d differs from GOMAXPROCS=1", procs, i)
			}
		}
	}
}

// attnScratchFloats sums the lengths of every scratch buffer the layer
// retains between steps.
func attnScratchFloats(a *MultiHeadAttention) int {
	return len(a.q) + len(a.k) + len(a.v) + len(a.stats) + len(a.attnOut) + len(a.dqkv)
}

// TestFusedAttentionScratchFootprint pins the layer's retained scratch
// at a ViT-Large-shaped sequence to its closed form,
// 7·B·T·W + 2·B·H·T floats — linear in T, with no (T×T) probability
// or backward buffers. The materialized oracle at the same shape holds 3·B·H·T² floats more,
// which is the regression this test guards against: before the fused
// path, every trained layer pinned those T² buffers forever.
func TestFusedAttentionScratchFootprint(t *testing.T) {
	// ViT-Large sequence geometry (T=197 with class-token-free grid
	// rounded to the paper's 196), narrow width to keep runtime down:
	// the footprint formula being pinned is exact at any width.
	const batch, tokens, width, heads = 1, 196, 64, 4
	r := rng.New(11)
	x := make([]float32, batch*tokens*width)
	dy := make([]float32, batch*tokens*width)
	r.FillNormal(x, 0, 1)
	r.FillNormal(dy, 0, 1)

	a := NewMultiHeadAttention("attn", width, heads, r)
	a.Forward(x, batch, tokens)
	a.Backward(dy)

	want := 7*batch*tokens*width + 2*batch*heads*tokens
	if got := attnScratchFloats(a); got != want {
		t.Fatalf("fused scratch = %d floats, want %d (7·B·T·W + 2·B·H·T)", got, want)
	}
}

// TestLinearInferBF16Bitwise checks the serving weight contract: with
// W pre-rounded to bf16, Infer through the packed 2-byte shadow is
// bitwise identical to Infer through the fp32 weights.
func TestLinearInferBF16Bitwise(t *testing.T) {
	const rows, in, out = 9, 37, 23
	r := rng.New(3)
	l := NewLinear("lin", in, out, r)
	tensor.RoundBF16(l.W.Value.Data, l.W.Value.Data)
	x := make([]float32, rows*in)
	r.FillNormal(x, 0, 1)

	ctx := NewInferCtx()
	want := append([]float32(nil), l.Infer(ctx, x, rows)...)
	ShadowBF16(l.Params())
	if l.W.BF16 == nil || l.B.BF16 != nil {
		t.Fatal("ShadowBF16 must shadow the weight matrix and only it")
	}
	got := l.Infer(ctx, x, rows)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bf16 Infer[%d] = %v, fp32 = %v (must be bitwise equal)", i, got[i], want[i])
		}
	}
}
