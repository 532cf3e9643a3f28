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
// allocates. Each head's Q, K and V are strided operands of the fused
// projection output.
type materializedAttention struct {
	*MultiHeadAttention
	qkv, probs, dp, ds []float32
}

func (m *materializedAttention) Forward(x []float32, batch, tokens int) []float32 {
	a := m.MultiHeadAttention
	w, h, d := a.Width, a.Heads, a.HeadDim
	a.batch, a.tokens = batch, tokens
	m.qkv = a.QKV.Forward(x, batch*tokens)
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

// linearFloats sums the lengths of a Linear's retained buffers.
func linearFloats(l *Linear) int { return len(l.y) + len(l.dx) }

// attnRetainedFloats sums the lengths of every buffer the layer and
// its two projections retain between steps.
func attnRetainedFloats(a *MultiHeadAttention) int {
	return len(a.stats) + len(a.attnOut) + len(a.dx) + linearFloats(a.QKV) + linearFloats(a.Out)
}

// TestFusedAttentionScratchFootprint pins what the layer retains at a
// ViT-Large-shaped sequence to its closed form, 6·B·T·W + 2·B·H·T
// floats: the fused QKV output (3, which is also every head's Q, K and
// V), the merged head output and the output projection's (1 each), the
// input gradient (1), and the softmax statistics — linear in T, with
// no (T×T) probability or backward buffers. It fails a layer that
// keeps the materialized oracle's 3·B·H·T² floats, per-head Q/K/V
// copies, the fused QKV gradient or its projections' own input
// gradients (7·B·T·W floats together).
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

	want := 6*batch*tokens*width + 2*batch*heads*tokens
	if got := attnRetainedFloats(a); got != want {
		t.Fatalf("fused attention retains %d floats, want %d (6·B·T·W + 2·B·H·T)", got, want)
	}
}

// blockRetainedFloats sums the lengths of every buffer a Block and its
// layers retain between steps.
func blockRetainedFloats(b *Block) int {
	ln := func(l *LayerNorm) int { return len(l.xhat) + len(l.invStd) + len(l.y) + len(l.dx) }
	a := b.Attn
	m := b.MLP
	return ln(b.LN1) + ln(b.LN2) +
		len(a.stats) + len(a.attnOut) + len(a.dx) + linearFloats(a.QKV) + linearFloats(a.Out) +
		len(m.dx) + linearFloats(m.FC1) + len(m.Act.y) + len(m.Act.dx) + linearFloats(m.FC2) +
		len(b.y1) + len(b.y2) + len(b.dx)
}

// TestBlockRetainedFloats pins what one trained block keeps for the
// whole step to its closed form, 13·R·W + 2·R·H + 2·R + 2·B·Hd·T floats
// (R = B·T rows, H the MLP width, Hd the heads): the forward caches
// backward reads (two LayerNorms' x̂, 1/σ and output, the fused QKV
// output, the merged heads, the softmax statistics, FC1's and GELU's
// outputs), the three outputs the next layer reads (the output
// projection's, FC2's, the two residual sums), and the block's input
// gradient. Every other input gradient is a transient in the shared
// scratch; a block whose layers each kept their own would retain
// 11·R·W + 2·R·H floats more.
func TestBlockRetainedFloats(t *testing.T) {
	const batch, tokens, width, hidden, heads = 2, 37, 48, 192, 8
	r := rng.New(12)
	rows := batch * tokens
	x := make([]float32, rows*width)
	dy := make([]float32, rows*width)
	r.FillNormal(x, 0, 1)
	r.FillNormal(dy, 0, 1)

	b := NewBlock("blk", width, hidden, heads, r)
	for step := 0; step < 2; step++ {
		b.Forward(x, batch, tokens)
		b.Backward(dy)
	}
	want := 13*rows*width + 2*rows*hidden + 2*rows + 2*batch*heads*tokens
	if got := blockRetainedFloats(b); got != want {
		t.Fatalf("block retains %d floats, want %d (13·R·W + 2·R·H + 2·R + 2·B·Hd·T)", got, want)
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
