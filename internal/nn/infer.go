package nn

import "repro/internal/tensor"

// InferCtx is a per-worker scratch arena for the inference-only
// forward path. Training forwards cache activations inside the layer
// structs (for backward), which makes a shared model unsafe to call
// from two goroutines; the Infer methods instead write every
// activation into the caller's InferCtx and never touch layer state,
// so any number of workers can run the same read-only weights
// concurrently with one InferCtx each. Every frozen-feature pass runs
// here — the probes' extractors and the serving batch alike; only a
// pass that will be followed by a backward runs Forward.
//
// Buffers are handed out in call order and stay valid until Reset, so
// a steady-state serving loop reuses the same allocations every
// batch. An InferCtx is not safe for concurrent use; it is the
// per-worker part of the split.
type InferCtx struct {
	bufs [][]float32
	next int
}

// NewInferCtx returns an empty arena; buffers grow on first use.
func NewInferCtx() *InferCtx { return &InferCtx{} }

// Reset recycles every buffer handed out since the last Reset.
// Slices returned by earlier Infer calls are invalid after Reset.
func (c *InferCtx) Reset() { c.next = 0 }

// Release frees the arena's buffers entirely, so a worker that served
// one oversized batch stops pinning that batch's footprint. The next
// Take re-grows from nothing.
func (c *InferCtx) Release() {
	c.bufs = nil
	c.next = 0
}

// Take returns a length-n scratch slice owned by the arena, valid
// until Reset. Contents are unspecified: every Infer method fully
// overwrites what it takes, and callers needing zeroed memory clear it
// themselves.
func (c *InferCtx) Take(n int) []float32 {
	if c.next == len(c.bufs) {
		c.bufs = append(c.bufs, nil)
	}
	b := c.bufs[c.next]
	if cap(b) < n {
		b = make([]float32, n)
	}
	b = b[:n]
	c.bufs[c.next] = b
	c.next++
	return b
}

// Infer is Forward without the backward caches: y = x·W + b computed
// by the same GEMM call, output in ctx. The layer
// is read-only here, so concurrent workers may share it.
func (l *Linear) Infer(ctx *InferCtx, x []float32, rows int) []float32 {
	checkRows(len(x), rows, l.In, "Linear.Infer")
	y := ctx.Take(rows * l.Out)
	if w := l.W.BF16; w != nil {
		// bf16 weight mode: stream the 2-byte encoding directly; the
		// GEMM widens panels in its pack stage, so no fp32 round-trip
		// buffer of the weights exists on this path.
		tensor.MatMulBF16Bias(y, x, w, l.B.Value.Data, rows, l.In, l.Out, false)
	} else {
		tensor.MatMulBias(y, x, l.W.Value.Data, l.B.Value.Data, rows, l.In, l.Out, false)
	}
	return y
}

// Infer normalizes rows of x through the same kernel as Forward,
// without caching x̂ or 1/σ.
func (ln *LayerNorm) Infer(ctx *InferCtx, x []float32, rows int) []float32 {
	d := ln.Dim
	checkRows(len(x), rows, d, "LayerNorm.Infer")
	y := ctx.Take(rows * d)
	tensor.LayerNorm(y, nil, nil, x, ln.Gamma.Value.Data, ln.Beta.Value.Data, rows, d, ln.Eps)
	return y
}

// Infer applies the activation elementwise without caching the input.
func (g *GELU) Infer(ctx *InferCtx, x []float32, rows int) []float32 {
	y := ctx.Take(len(x))
	tensor.GELU(y, x)
	return y
}

// Infer runs the feed-forward block through the arena.
func (m *MLP) Infer(ctx *InferCtx, x []float32, rows int) []float32 {
	h := m.FC1.Infer(ctx, x, rows)
	h = m.Act.Infer(ctx, h, rows)
	return m.FC2.Infer(ctx, h, rows)
}

// Infer runs self-attention with every intermediate (fused QKV, the
// per-head Q/K/V rearrangement, the merged head output) in the arena.
// It runs the same attend core as Forward, so the output is bitwise
// equal to the training path, and the arena never holds a (T×T)
// buffer — only the O(B·H·T) statistics — which is what keeps a
// serving worker's steady-state footprint independent of the score
// matrix size.
func (a *MultiHeadAttention) Infer(ctx *InferCtx, x []float32, batch, tokens int) []float32 {
	w, d := a.Width, a.HeadDim
	checkRows(len(x), batch*tokens, w, "MultiHeadAttention.Infer")
	qkv := a.QKV.Infer(ctx, x, batch*tokens)

	bh := batch * a.Heads
	q := ctx.Take(bh * tokens * d)
	k := ctx.Take(bh * tokens * d)
	v := ctx.Take(bh * tokens * d)
	attnOut := ctx.Take(batch * tokens * w)
	stats := ctx.Take(bh * 2 * tokens)
	a.attend(attnOut, stats, q, k, v, qkv, batch, tokens)

	return a.Out.Infer(ctx, attnOut, batch*tokens)
}

// Infer runs the pre-norm block with both residual sums in the arena.
func (b *Block) Infer(ctx *InferCtx, x []float32, batch, tokens int) []float32 {
	rows := batch * tokens
	h := b.LN1.Infer(ctx, x, rows)
	h = b.Attn.Infer(ctx, h, batch, tokens)
	y1 := ctx.Take(len(x))
	tensor.Add(y1, x, h)

	h2 := b.LN2.Infer(ctx, y1, rows)
	h2 = b.MLP.Infer(ctx, h2, rows)
	y2 := ctx.Take(len(x))
	tensor.Add(y2, y1, h2)
	return y2
}

// Infer embeds flattened patches and adds the fixed positional table,
// writing into the arena instead of the layer's buffer.
func (pe *PatchEmbed) Infer(ctx *InferCtx, patches []float32, batch int) []float32 {
	return pe.addPos(pe.Proj.Infer(ctx, patches, batch*pe.Tokens))
}
