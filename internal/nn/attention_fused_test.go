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

// runAttn runs one forward and backward on a fresh layer with fixed
// weights and returns output, input gradient, and flattened parameter
// gradients. With materialized set the attention core between the two
// projections is the oracle below instead of the layer's own.
func runAttn(materialized bool, batch, tokens, width, heads int, x, dy []float32) (y, dx, grads []float32) {
	r := rng.New(42)
	a := NewMultiHeadAttention("attn", width, heads, r)
	ctx := NewTrainCtx()
	dx = make([]float32, len(x))
	if materialized {
		m := &materializedAttention{MultiHeadAttention: a}
		y = m.apply(ctx, x, batch, tokens)
		m.backprop(dx, dy)
	} else {
		y = a.Apply(ctx, x, batch, tokens)
		a.Backprop(ctx, dx, dy)
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
// allocates. Each head's Q, K and V are strided operands of the fused
// projection output.
type materializedAttention struct {
	*MultiHeadAttention
	qkv, probs, dp, ds []float32
}

func (m *materializedAttention) apply(ctx *Arena, x []float32, batch, tokens int) []float32 {
	a := m.MultiHeadAttention
	w, h, d := a.Width, a.Heads, a.HeadDim
	a.batch, a.tokens = batch, tokens
	m.qkv = a.QKV.Apply(ctx, x, batch*tokens)
	bh := batch * h
	a.attnOut = make([]float32, batch*tokens*w)
	m.probs = make([]float32, bh*tokens*tokens)
	scale := float32(1 / math.Sqrt(float64(d)))
	for i := 0; i < bh; i++ {
		b, hh := i/h, i%h
		src := m.qkv[(b*tokens)*3*w+hh*d:] // Q, then K at +W, V at +2W
		p := m.probs[i*tokens*tokens : (i+1)*tokens*tokens]
		tensor.MatMulTBLd(p, src, src[w:], tokens, d, tokens, 3*w, 3*w, tokens, false)
		tensor.SoftmaxScaled(p, p, tokens, tokens, scale)
		tensor.MatMulLd(a.attnOut[(b*tokens)*w+hh*d:], p, src[2*w:], tokens, tokens, d, tokens, 3*w, w, false)
	}
	return a.Out.Apply(ctx, a.attnOut, batch*tokens)
}

func (m *materializedAttention) backprop(dx, dy []float32) {
	a := m.MultiHeadAttention
	w, h, d := a.Width, a.Heads, a.HeadDim
	batch, tokens := a.batch, a.tokens
	dAttn := make([]float32, len(dy))
	a.Out.Backprop(dAttn, dy)
	bh := batch * h
	dqkv := make([]float32, batch*tokens*3*w)
	m.dp = make([]float32, bh*tokens*tokens)
	m.ds = make([]float32, bh*tokens*tokens)
	scale := float32(1 / math.Sqrt(float64(d)))
	for i := 0; i < bh; i++ {
		b, hh := i/h, i%h
		src := m.qkv[(b*tokens)*3*w+hh*d:]
		q, k, v := src, src[w:], src[2*w:]
		p := m.probs[i*tokens*tokens : (i+1)*tokens*tokens]
		dp := m.dp[i*tokens*tokens : (i+1)*tokens*tokens]
		ds := m.ds[i*tokens*tokens : (i+1)*tokens*tokens]
		do := dAttn[(b*tokens)*w+hh*d:]
		dqkvH := dqkv[(b*tokens)*3*w:]
		// dV = Pᵀ·dO, dP = dO·Vᵀ, dS = softmax backward (scale folded),
		// dQ = dS·K, dK = dSᵀ·Q.
		tensor.MatMulTALd(dqkvH[2*w+hh*d:], p, do, tokens, tokens, d, tokens, w, 3*w, false)
		tensor.MatMulTBLd(dp, do, v, tokens, d, tokens, w, 3*w, tokens, false)
		tensor.SoftmaxBackwardScaled(ds, p, dp, tokens, tokens, scale)
		tensor.MatMulLd(dqkvH[hh*d:], ds, k, tokens, tokens, d, tokens, 3*w, 3*w, false)
		tensor.MatMulTALd(dqkvH[w+hh*d:], ds, q, tokens, tokens, d, tokens, 3*w, 3*w, false)
	}
	a.QKV.Backprop(dx, dqkv)
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

// TestFrozenBlockMatchesRecording: a frozen pass is the recording pass
// with nothing recorded. Through every layer of a block its output is
// bitwise the recording pass's — the invariant the serving equivalence
// tests build on — and frozen passes run between a recording pass and
// its backward leave every gradient bitwise alone.
func TestFrozenBlockMatchesRecording(t *testing.T) {
	const batch, tokens, width, hidden, heads = 2, 29, 32, 96, 4
	r := rng.New(7)
	x, other := make([]float32, batch*tokens*width), make([]float32, batch*tokens*width)
	dy := make([]float32, batch*tokens*width)
	r.FillNormal(x, 0, 1)
	r.FillNormal(other, 0, 1)
	r.FillNormal(dy, 0, 1)
	run := func(interleave bool) [][]float32 {
		b := NewBlock("blk", width, hidden, heads, rng.New(8))
		ctx := NewTrainCtx()
		y := b.Apply(ctx, x, batch, tokens)
		if interleave {
			frozen := NewInferCtx()
			if yf := b.Apply(frozen, x, batch, tokens); !bitsEqual(yf, y) {
				t.Fatal("frozen block output differs from the recording pass's")
			}
			b.Apply(frozen, other, 1, 2*tokens)
		}
		dx := make([]float32, len(x))
		b.Backprop(ctx, dx, dy)
		out := [][]float32{y, dx}
		for _, p := range b.Params() {
			out = append(out, p.Grad.Data)
		}
		return out
	}
	want, got := run(false), run(true)
	for i := range want {
		if !bitsEqual(got[i], want[i]) {
			t.Fatalf("result %d differs with frozen passes interleaved", i)
		}
	}
}

// TestAttentionAndLayerNormProcsIndependent: each head is one serial
// kernel call and each LayerNorm row one fixed reduction tree, so the
// layers' outputs and gradients are the same bits however many workers
// the pool splits them over — and the frozen pass equals the recording
// pass at each count.
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
		ctx, frozen := NewTrainCtx(), NewInferCtx()
		y := a.Apply(ctx, ln.Apply(ctx, x, batch*tokens), batch, tokens)
		if yf := a.Apply(frozen, ln.Apply(frozen, x, batch*tokens), batch, tokens); !bitsEqual(yf, y) {
			t.Errorf("GOMAXPROCS=%d: frozen pass differs from the recording pass", runtime.GOMAXPROCS(0))
		}
		dh, dx := make([]float32, len(x)), make([]float32, len(x))
		a.Backprop(ctx, dh, dy)
		ln.Backprop(dx, dh)
		out = append(out, y, dx)
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

// TestFusedAttentionScratchFootprint pins the layer's footprint at a
// ViT-Large-shaped sequence — its recording arena's Bytes after a
// forward and backward — to its closed form, 8·B·T·W + 2·B·H·T floats:
// what the forward keeps (the fused QKV output, 3, which is also every
// head's Q, K and V; the merged head output and the output
// projection's, 1 each; the softmax statistics) and the backward's one
// transient, the fused QKV gradient (3). It is linear in T, with no
// (T×T) probability or backward buffers: it fails a layer that keeps
// the materialized oracle's 3·B·H·T² floats, per-head Q/K/V copies, or
// a separate buffer for the output projection's input gradient.
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
	ctx := NewTrainCtx()
	a.Apply(ctx, x, batch, tokens)
	a.Backprop(ctx, make([]float32, len(x)), dy)

	want := 4 * (8*batch*tokens*width + 2*batch*heads*tokens)
	if got := ctx.Bytes(); got != want {
		t.Fatalf("fused attention holds %d bytes, want %d (8·B·T·W + 2·B·H·T floats)", got, want)
	}
}

// TestBlockRetainedFloats pins one block's activation footprint — its
// recording arena's Bytes after two forward and backward steps on the
// one arena — to its closed form in floats (R = B·T rows, H the MLP
// width, Hd the heads):
//
//	12·R·W + 2·R·H + 2·R + 2·B·Hd·T  +  R·max(H, 3·W) + R·W
//
// The first term is what the forward keeps: two LayerNorms' x̂, 1/σ and
// output, the fused QKV output, the merged heads, the softmax
// statistics, the output projection's, FC1's, GELU's and FC2's outputs
// and the two residual sums. The second is the backward's two
// transients, wide and narrow, which every child's input gradient
// reuses; the block's own input gradient is the caller's. The shapes
// put H on both sides of 3·W.
func TestBlockRetainedFloats(t *testing.T) {
	for _, s := range []struct{ batch, tokens, width, hidden, heads int }{
		{2, 37, 48, 192, 8},
		{3, 11, 40, 64, 4},
	} {
		r := rng.New(12)
		rows := s.batch * s.tokens
		x := make([]float32, rows*s.width)
		dy := make([]float32, rows*s.width)
		r.FillNormal(x, 0, 1)
		r.FillNormal(dy, 0, 1)

		b := NewBlock("blk", s.width, s.hidden, s.heads, r)
		ctx := NewTrainCtx()
		dx := make([]float32, len(x))
		for step := 0; step < 2; step++ {
			ctx.Reset()
			b.Apply(ctx, x, s.batch, s.tokens)
			b.Backprop(ctx, dx, dy)
		}
		floats := 12*rows*s.width + 2*rows*s.hidden + 2*rows + 2*s.batch*s.heads*s.tokens +
			rows*max(s.hidden, 3*s.width) + rows*s.width
		if got := ctx.Bytes(); got != 4*floats {
			t.Fatalf("%+v: block holds %d bytes, want %d (%d floats)", s, got, 4*floats, floats)
		}
	}
}

// TestLinearInferBF16Bitwise checks the serving weight contract: with
// W pre-rounded to bf16, a frozen pass through the packed 2-byte shadow
// is bitwise a frozen pass through the fp32 weights, and a recording
// pass reads Value, never the shadow.
func TestLinearInferBF16Bitwise(t *testing.T) {
	const rows, in, out = 9, 37, 23
	r := rng.New(3)
	l := NewLinear("lin", in, out, r)
	tensor.RoundBF16(l.W.Value.Data, l.W.Value.Data)
	x := make([]float32, rows*in)
	r.FillNormal(x, 0, 1)

	frozen := NewInferCtx()
	want := l.Apply(frozen, x, rows)
	ShadowBF16(l.Params())
	if l.W.BF16 == nil || l.B.BF16 != nil {
		t.Fatal("ShadowBF16 must shadow the weight matrix and only it")
	}
	if got := l.Apply(frozen, x, rows); !bitsEqual(got, want) {
		t.Fatal("bf16 frozen pass differs from the fp32 one (must be bitwise equal)")
	}
	clear(l.W.Value.Data) // the shadow is now stale
	for i, v := range l.Apply(NewTrainCtx(), x, rows) {
		if v != 0 {
			t.Fatalf("recording pass [%d] = %v with zeroed weights and bias: it read the stale shadow", i, v)
		}
	}
}
