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

// Apply applies the feed-forward transform row-wise into a scratch
// slot of ctx. A recording arena keeps FC1's output, the pre-activation
// GELU's backward reads, and records x, which the caller keeps until
// Backprop; GELU's output is scratch, and the backward regenerates it.
func (m *MLP) Apply(ctx *Arena, x []float32, rows int) []float32 {
	y := ctx.Scratch(rows * m.FC2.Out)
	m.apply(ctx, y, x, rows)
	if ctx.recording {
		m.FC1.x = x
	}
	return y
}

// apply is Apply into the caller's y, which may alias x: FC1 has read x
// before FC2 writes y. GELU's output (and, on a frozen arena, FC1's) is
// scratch, handed back before apply returns.
func (m *MLP) apply(ctx *Arena, y, x []float32, rows int) {
	mark := ctx.Mark()
	h := ctx.keep(rows * m.FC1.Out)
	m.FC1.apply(ctx, h, x, rows)
	g := ctx.Scratch(len(h))
	m.Act.apply(ctx, g, h)
	m.FC2.apply(ctx, y, g, rows)
	ctx.Rewind(mark)
}

// Backprop propagates the feed-forward gradient and writes dL/dx into
// the caller's dx. The hidden gradient is a scratch transient.
func (m *MLP) Backprop(ctx *Arena, dx, dy []float32) {
	mark := ctx.Mark()
	m.backprop(dx, dy, ctx.Scratch(m.FC1.rows*m.FC1.Out), m.FC1.x)
	ctx.Rewind(mark)
}

// backprop is Backprop against x, FC1's input or a regeneration of it,
// with the caller's (rows × hidden) transient h: GELU's output is
// regenerated into h for FC2's weight gradient, FC2's input gradient
// then overwrites it, and GELU's backward turns that in place into
// FC1's output gradient. dx may alias x, since FC1 reads x only for its
// weight gradient; neither dx nor h may alias dy.
func (m *MLP) backprop(dx, dy, h, x []float32) {
	m.Act.output(h)
	m.FC2.backprop(h, dy, h)
	m.Act.Backprop(h, h)
	m.FC1.backprop(dx, h, x)
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

// Apply runs the block in place over x, the (batch·tokens × width)
// residual stream of batch sequences of tokens tokens: x becomes
// x + MHA(LN₁(x)), then x + MLP(LN₂(x)). A recording arena keeps what
// the backward re-reads — each LayerNorm's x̂ and 1/σ, the fused QKV
// output, the merged heads, the softmax statistics and FC1's
// pre-activation. Everything else is scratch handed back before Apply
// returns: one (rows × width) slot that holds each LayerNorm's output
// and then its branch's output, and GELU's output. On a frozen arena
// the block keeps nothing.
func (b *Block) Apply(ctx *Arena, x []float32, batch, tokens int) {
	rows := batch * tokens
	mark := ctx.Mark()
	t := ctx.Scratch(len(x))
	b.LN1.apply(ctx, t, x, rows)
	b.Attn.apply(ctx, t, t, batch, tokens)
	tensor.Add(x, x, t)
	b.LN2.apply(ctx, t, x, rows)
	b.MLP.apply(ctx, t, t, rows)
	tensor.Add(x, x, t)
	ctx.Rewind(mark)
}

// Backprop propagates through both residual branches and writes dL/dx
// into the caller's dx, which may alias dy: a stack runs its blocks in
// place over one gradient. Every child's input gradient is a scratch
// transient — narrow (rows × width) and wide (rows × max(hidden,
// 3·width)), which the MLP branch and then the attention branch reuse —
// so blocks backpropagated at the same scratch top share them. The two
// forward tensors a weight gradient reads and the block did not keep
// are regenerated there: each LayerNorm's output in narrow, where the
// projection it feeds then writes its input gradient, and GELU's
// output in wide.
func (b *Block) Backprop(ctx *Arena, dx, dy []float32) {
	rows, n := b.LN1.rows, len(dy)
	mark := ctx.Mark()
	narrow := ctx.Scratch(n)
	wide := ctx.Scratch(rows * max(b.MLP.FC1.Out, 3*b.Attn.Width))

	// MLP branch: LN₂'s output in narrow for FC1, GELU's output and then
	// FC2's and GELU's gradients in wide, FC1's gradient over narrow,
	// LN₂'s back in wide.
	b.LN2.output(narrow)
	b.MLP.backprop(narrow, dy, wide[:rows*b.MLP.FC1.Out], narrow)
	b.LN2.Backprop(wide[:n], narrow)
	// Gradient into y1 is the residual term plus the MLP branch; dy is
	// not read after this.
	tensor.Add(dx, dy, wide[:n])

	// Attention branch: the output projection's gradient in narrow, the
	// fused head gradients in wide; LN₁'s output in narrow for QKV,
	// QKV's gradient over it, LN₁'s back in wide.
	b.Attn.backpropHeads(narrow, dx, wide[:3*n])
	b.LN1.output(narrow)
	b.Attn.QKV.backprop(narrow, wide[:3*n], narrow)
	b.LN1.Backprop(wide[:n], narrow)
	// dx = dy1 + dln1, in place.
	tensor.Add(dx, dx, wide[:n])
	ctx.Rewind(mark)
}
