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
// (tensor.FlashAttnFwdLd / FlashAttnBwdLd): online softmax over K/V
// tiles, the 1/√d scale folded into the tile loop, and only the
// per-row (max, exp-sum) statistics cached between forward and
// backward — O(B·H·T) state instead of the O(B·H·T²) probability
// matrices. The materialized form (full per-head score matrix through
// the blocked GEMM and the softmax ops) lives only in the tests, as
// the oracle the fused path is property-tested against. Every
// head-interleaved operand is addressed in place as a strided (T × D)
// tile: each head's Q, K and V inside the fused (B·T × 3W) projection
// output the QKV layer keeps, its O and dO inside the (B·T × W)
// attention output and gradient, and its dQ, dK, dV inside the fused
// (B·T × 3W) gradient — no per-head copies or rearrangement buffers.
type MultiHeadAttention struct {
	Width, Heads, HeadDim int

	QKV *Linear // width → 3·width
	Out *Linear // width → width

	batch, tokens int

	// per-row online softmax statistics, 2 per (b·h, t).
	stats []float32
	// forward output, re-read by the backward.
	attnOut []float32
	// the input gradient of Backward (backward writes into the
	// caller's memory instead).
	dx []float32
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
	checkRows(len(x), batch*tokens, a.Width, "MultiHeadAttention.Forward")
	a.batch, a.tokens = batch, tokens
	qkv := a.QKV.Forward(x, batch*tokens)
	a.attnOut = grow(a.attnOut, batch*tokens*a.Width)
	a.stats = grow(a.stats, batch*a.Heads*2*tokens)
	a.attend(a.attnOut, a.stats, qkv, batch, tokens)
	return a.Out.Forward(a.attnOut, batch*tokens)
}

// attend is the attention core shared by Forward and Infer: per
// (b, h) it runs the fused forward kernel on the head's strided
// (T × D) thirds of the fused (B·T × 3W) projection, writing the
// head's O as a strided (T × D) tile straight into the (B·T × W)
// attnOut and its (m, l) statistics into stats — or none, when stats
// is nil (Infer: no backward follows). Each head is computed by one
// serial kernel call, so the result does not depend on how the pool
// splits the heads.
func (a *MultiHeadAttention) attend(attnOut, stats, qkv []float32, batch, tokens int) {
	w, h, d := a.Width, a.Heads, a.HeadDim
	scale := float32(1 / math.Sqrt(float64(d)))
	parallel.ForGrain(batch*h, 1, func(i int) {
		b, hh := i/h, i%h
		var st []float32
		if stats != nil {
			st = stats[i*2*tokens : (i+1)*2*tokens]
		}
		src := qkv[(b*tokens)*3*w+hh*d:]
		tensor.FlashAttnFwdLd(attnOut[(b*tokens)*w+hh*d:], w, src, src[w:], src[2*w:], 3*w,
			tokens, d, scale, st)
	})
}

// Backward propagates through the attention layer, accumulating
// projection gradients and returning dL/dx in a buffer the layer owns,
// valid until its next Backward. The fused QKV gradient is a transient
// borrowed from the shared backward scratch.
func (a *MultiHeadAttention) Backward(dy []float32) []float32 {
	s := borrowScratch()
	a.dx = grow(a.dx, len(dy))
	s.wide = grow(s.wide, 3*len(dy))
	a.backward(a.dx, dy, s.wide)
	s.release()
	return a.dx
}

// backward is Backward writing dL/dx into the caller's (B·T × W) dx,
// which first holds the output projection's gradient (every head's
// dO); dqkv is (B·T × 3W) scratch for the fused QKV gradient. Neither
// may alias dy, and both are fully overwritten.
func (a *MultiHeadAttention) backward(dx, dy, dqkv []float32) {
	w, h, d := a.Width, a.Heads, a.HeadDim
	batch, tokens := a.batch, a.tokens
	checkRows(len(dy), batch*tokens, w, "MultiHeadAttention.Backward")
	a.Out.backward(dx, dy) // dx holds dAttn (B·T × W) until QKV's backward
	qkv := a.QKV.y
	scale := float32(1 / math.Sqrt(float64(d)))
	parallel.ForGrain(batch*h, 1, func(i int) {
		b, hh := i/h, i%h
		// This head's Q, K, V, dO and O are strided (T × D) views; its
		// dQ, dK, dV are the strided thirds of the fused (B·T × 3W)
		// gradient. Probability tiles are recomputed inside the kernel
		// from the cached (m, l) statistics.
		src := qkv[(b*tokens)*3*w+hh*d:]
		dst := dqkv[(b*tokens)*3*w+hh*d:]
		tensor.FlashAttnBwdLd(dst, dst[w:], dst[2*w:], 3*w,
			dx[(b*tokens)*w+hh*d:], a.attnOut[(b*tokens)*w+hh*d:], w,
			src, src[w:], src[2*w:], 3*w, tokens, d, scale,
			a.stats[i*2*tokens:(i+1)*2*tokens])
	})
	a.QKV.backward(dx, dqkv)
}
