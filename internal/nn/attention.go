package nn

import (
	"fmt"
	"math"

	"repro/internal/parallel"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// MultiHeadAttention implements standard scaled-dot-product multi-head
// self-attention (the compute core of the ViT encoder, and the layer
// whose FLOP profile internal/perfmodel mirrors for the Frontier
// simulator).
//
// The layer owns its fused QKV projection and output projection. Both
// passes — and Infer — run the fused tiled kernels
// (tensor.FlashAttnFwd / FlashAttnBwd): online softmax over K/V
// tiles, the 1/√d scale folded into the tile loop, and only the
// per-row (max, exp-sum) statistics cached between forward and
// backward — O(B·H·T) state instead of the O(B·H·T²) probability
// matrices. The materialized form (full per-head score matrix through
// the blocked GEMM and the softmax ops) lives only in the tests, as
// the oracle the fused path is property-tested against. The
// head-interleaved operands (dO inside the upstream (B·T × W)
// gradient, the per-head thirds of the fused (B·T × 3W) QKV gradient)
// are addressed in place via strided entry points, so no per-token
// rearrangement loops or per-head gradient scratch buffers remain.
type MultiHeadAttention struct {
	Width, Heads, HeadDim int

	QKV *Linear // width → 3·width
	Out *Linear // width → width

	batch, tokens int

	// [b·h][t][d] contiguous rearrangements of the fused QKV output,
	// kept packed because the forward and the backward kernels both
	// re-read them.
	q, k, v []float32
	// per-row online softmax statistics, 2 per (b·h, t).
	stats []float32
	// forward output (re-read by the backward) and the fused QKV
	// gradient.
	attnOut []float32
	dqkv    []float32
}

// NewMultiHeadAttention builds the layer; width must be divisible by
// heads.
func NewMultiHeadAttention(name string, width, heads int, r *rng.RNG) *MultiHeadAttention {
	if width%heads != 0 {
		panic(fmt.Sprintf("nn: width %d not divisible by heads %d", width, heads))
	}
	return &MultiHeadAttention{
		Width:   width,
		Heads:   heads,
		HeadDim: width / heads,
		QKV:     NewLinear(name+".qkv", width, 3*width, r),
		Out:     NewLinear(name+".out", width, width, r),
	}
}

// Params returns the projection parameters.
func (a *MultiHeadAttention) Params() []*Param {
	return append(a.QKV.Params(), a.Out.Params()...)
}

// Forward runs self-attention over batch sequences of tokens tokens
// each; x has shape (batch·tokens × width).
func (a *MultiHeadAttention) Forward(x []float32, batch, tokens int) []float32 {
	w, d := a.Width, a.HeadDim
	checkRows(len(x), batch*tokens, w, "MultiHeadAttention.Forward")
	a.batch, a.tokens = batch, tokens
	qkv := a.QKV.Forward(x, batch*tokens)

	bh := batch * a.Heads
	a.q = grow(a.q, bh*tokens*d)
	a.k = grow(a.k, bh*tokens*d)
	a.v = grow(a.v, bh*tokens*d)
	a.attnOut = grow(a.attnOut, batch*tokens*w)
	a.stats = grow(a.stats, bh*2*tokens)
	a.attend(a.attnOut, a.stats, a.q, a.k, a.v, qkv, batch, tokens)

	return a.Out.Forward(a.attnOut, batch*tokens)
}

// attend is the attention core shared by Forward and Infer: it splits
// the fused (B·T × 3W) projection into per-(b,h) contiguous (T × D)
// q, k, v and runs the fused forward kernel per head, writing each
// head's O as a strided (T × D) tile straight into the (B·T × W)
// attnOut and its (m, l) statistics into stats. Each head is computed
// by one serial kernel call, so the result does not depend on how the
// pool splits the heads.
func (a *MultiHeadAttention) attend(attnOut, stats, q, k, v, qkv []float32, batch, tokens int) {
	w, h, d := a.Width, a.Heads, a.HeadDim
	scale := float32(1 / math.Sqrt(float64(d)))
	parallel.ForGrain(batch*h, 1, func(i int) {
		b, hh := i/h, i%h
		qi := q[i*tokens*d : (i+1)*tokens*d]
		ki := k[i*tokens*d : (i+1)*tokens*d]
		vi := v[i*tokens*d : (i+1)*tokens*d]
		a.splitHead(qi, ki, vi, qkv[b*tokens*3*w:], hh, tokens)
		tensor.FlashAttnFwd(attnOut[(b*tokens)*w+hh*d:], w, qi, ki, vi,
			tokens, d, scale, stats[i*2*tokens:(i+1)*2*tokens])
	})
}

// splitHead copies head hh's thirds of one sequence's fused
// (T × 3W) projection into contiguous (T × D) q, k, v.
func (a *MultiHeadAttention) splitHead(q, k, v, qkv []float32, hh, tokens int) {
	w, d := a.Width, a.HeadDim
	for t := 0; t < tokens; t++ {
		src := qkv[t*3*w:]
		copy(q[t*d:t*d+d], src[hh*d:hh*d+d])
		copy(k[t*d:t*d+d], src[w+hh*d:w+hh*d+d])
		copy(v[t*d:t*d+d], src[2*w+hh*d:2*w+hh*d+d])
	}
}

// Backward propagates through the attention layer, accumulating
// projection gradients and returning dL/dx.
func (a *MultiHeadAttention) Backward(dy []float32) []float32 {
	w, h, d := a.Width, a.Heads, a.HeadDim
	batch, tokens := a.batch, a.tokens
	checkRows(len(dy), batch*tokens, w, "MultiHeadAttention.Backward")
	dAttn := a.Out.Backward(dy) // (B·T × W)

	a.dqkv = grow(a.dqkv, batch*tokens*3*w)
	scale := float32(1 / math.Sqrt(float64(d)))
	parallel.ForGrain(batch*h, 1, func(i int) {
		b, hh := i/h, i%h
		q := a.q[i*tokens*d : (i+1)*tokens*d]
		k := a.k[i*tokens*d : (i+1)*tokens*d]
		v := a.v[i*tokens*d : (i+1)*tokens*d]
		// This head's dO and O are strided (T × D) views; its dQ,
		// dK, dV are the strided thirds of the fused (B·T × 3W)
		// gradient. Probability tiles are recomputed inside the
		// kernel from the cached (m, l) statistics.
		do := dAttn[(b*tokens)*w+hh*d:]
		o := a.attnOut[(b*tokens)*w+hh*d:]
		dqkvH := a.dqkv[(b*tokens)*3*w:]
		tensor.FlashAttnBwd(dqkvH[hh*d:], dqkvH[w+hh*d:], dqkvH[2*w+hh*d:], 3*w,
			do, o, w, q, k, v, tokens, d, scale,
			a.stats[i*2*tokens:(i+1)*2*tokens])
	})
	return a.QKV.Backward(a.dqkv)
}
