package nn

import (
	"repro/internal/rng"
	"repro/internal/tensor"
)

// MLP is the transformer feed-forward block: Linear → GELU → Linear.
type MLP struct {
	FC1 *Linear
	Act *GELU
	FC2 *Linear

	fwdShim, bwdShim *Arena
}

// NewMLP builds the feed-forward block mapping width → hidden → width.
func NewMLP(name string, width, hidden int, r *rng.RNG) *MLP {
	return &MLP{
		FC1: NewLinear(name+".fc1", width, hidden, r),
		Act: NewGELU(),
		FC2: NewLinear(name+".fc2", hidden, width, r),
	}
}

// Params returns both projections' parameters.
func (m *MLP) Params() []*Param { return append(m.FC1.Params(), m.FC2.Params()...) }

// Apply applies the feed-forward transform row-wise into ctx.
func (m *MLP) Apply(ctx *Arena, x []float32, rows int) []float32 {
	h := m.FC1.Apply(ctx, x, rows)
	return m.FC2.Apply(ctx, m.Act.Apply(ctx, h), rows)
}

// Backprop propagates the feed-forward gradient and writes dL/dx into
// the caller's dx. The hidden gradient is a transient at ctx's top.
func (m *MLP) Backprop(ctx *Arena, dx, dy []float32) {
	mark := ctx.Mark()
	m.backprop(dx, dy, ctx.Take(m.FC1.rows*m.FC1.Out))
	ctx.Rewind(mark)
}

// backprop is Backprop with the caller's (rows × hidden) transient h,
// which receives FC2's input gradient, turned in place by GELU's
// backward into FC1's output gradient. Neither dx nor h may alias dy.
func (m *MLP) backprop(dx, dy, h []float32) {
	m.FC2.Backprop(h, dy)
	m.Act.Backprop(h, h)
	m.FC1.Backprop(dx, h)
}

// Block is a pre-norm transformer encoder block:
//
//	x = x + MHA(LN₁(x));  x = x + MLP(LN₂(x))
//
// exactly as in ViT (Dosovitskiy et al.) and the MAE encoder/decoder.
type Block struct {
	LN1  *LayerNorm
	Attn *MultiHeadAttention
	LN2  *LayerNorm
	MLP  *MLP
}

// NewBlock constructs one encoder block with the given width, MLP
// hidden size, and head count.
func NewBlock(name string, width, mlpHidden, heads int, r *rng.RNG) *Block {
	return &Block{
		LN1:  NewLayerNorm(name+".ln1", width),
		Attn: NewMultiHeadAttention(name+".attn", width, heads, r),
		LN2:  NewLayerNorm(name+".ln2", width),
		MLP:  NewMLP(name+".mlp", width, mlpHidden, r),
	}
}

// Params returns all block parameters in a stable order.
func (b *Block) Params() []*Param {
	ps := b.LN1.Params()
	ps = append(ps, b.Attn.Params()...)
	ps = append(ps, b.LN2.Params()...)
	ps = append(ps, b.MLP.Params()...)
	return ps
}

// Apply runs the block over batch sequences of tokens tokens, both
// residual sums in ctx.
func (b *Block) Apply(ctx *Arena, x []float32, batch, tokens int) []float32 {
	rows := batch * tokens
	h := b.Attn.Apply(ctx, b.LN1.Apply(ctx, x, rows), batch, tokens)
	y1 := ctx.Take(len(x))
	tensor.Add(y1, x, h)

	h = b.MLP.Apply(ctx, b.LN2.Apply(ctx, y1, rows), rows)
	y2 := ctx.Take(len(x))
	tensor.Add(y2, y1, h)
	return y2
}

// Backprop propagates through both residual branches and writes dL/dx
// into the caller's dx, which may alias dy: a stack runs its blocks in
// place over one gradient. Every child's input gradient is a transient
// at ctx's top — wide (rows × max(hidden, 3·width)) and narrow
// (rows × width), which the MLP branch and then the attention branch
// reuse — so blocks backpropagated at the same top share them.
func (b *Block) Backprop(ctx *Arena, dx, dy []float32) {
	rows, n := b.LN1.rows, len(dy)
	mark := ctx.Mark()
	wide := ctx.Take(rows * max(b.MLP.FC1.Out, 3*b.Attn.Width))
	narrow := ctx.Take(n)

	// MLP branch: FC2's and GELU's gradients in wide, FC1's in narrow,
	// LN2's back in wide.
	b.MLP.backprop(narrow, dy, wide[:rows*b.MLP.FC1.Out])
	b.LN2.Backprop(wide[:n], narrow)
	// Gradient into y1 is the residual term plus the MLP branch; dy is
	// not read after this.
	tensor.Add(dx, dy, wide[:n])

	// Attention branch: the output projection's and QKV's gradients in
	// narrow, the fused head gradients in wide, LN1's back in wide.
	b.Attn.backprop(narrow, dx, wide[:3*n])
	b.LN1.Backprop(wide[:n], narrow)
	// dx = dy1 + dln1, in place.
	tensor.Add(dx, dx, wide[:n])
	ctx.Rewind(mark)
}
