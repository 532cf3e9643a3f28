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

// Forward applies the feed-forward transform row-wise.
func (m *MLP) Forward(x []float32, rows int) []float32 {
	h := m.FC1.Forward(x, rows)
	h = m.Act.Forward(h, rows)
	return m.FC2.Forward(h, rows)
}

// Backward propagates the feed-forward gradient.
func (m *MLP) Backward(dy []float32) []float32 {
	dh := m.FC2.Backward(dy)
	dh = m.Act.Backward(dh)
	return m.FC1.Backward(dh)
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

	y1, y2, dx []float32
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

// Forward runs the block over batch sequences of tokens tokens.
func (b *Block) Forward(x []float32, batch, tokens int) []float32 {
	rows := batch * tokens
	h := b.LN1.Forward(x, rows)
	h = b.Attn.Forward(h, batch, tokens)
	b.y1 = grow(b.y1, len(x))
	tensor.Add(b.y1, x, h)

	h2 := b.LN2.Forward(b.y1, rows)
	h2 = b.MLP.Forward(h2, rows)
	b.y2 = grow(b.y2, len(x))
	tensor.Add(b.y2, b.y1, h2)
	return b.y2
}

// Backward propagates through both residual branches.
func (b *Block) Backward(dy []float32) []float32 {
	dmlp := b.MLP.Backward(dy)
	dln2 := b.LN2.Backward(dmlp)
	// Gradient into y1 is the residual term plus the MLP branch.
	dy1 := grow(b.dx, len(dy))
	tensor.Add(dy1, dy, dln2)

	dattn := b.Attn.Backward(dy1)
	dln1 := b.LN1.Backward(dattn)
	// Reuse dy1 as the output buffer: dx = dy1 + dln1.
	tensor.Add(dy1, dy1, dln1)
	b.dx = dy1
	return dy1
}
