package nn

import (
	"sync"

	"repro/internal/rng"
	"repro/internal/tensor"
)

// scratch is the backward-transient memory of one Block.Backward:
// wide (rows × max(hidden, 3·width)) and narrow (rows × width), which
// the MLP branch and then the attention branch reuse for every input
// gradient that is dead once the next layer down has read it. One set
// is shared by every block of every model in the process — encoder and
// decoder, all depths — the way tensor's pack pools are shared by GEMM
// calls: a backward borrows one for its duration, so backwards running
// concurrently (in-process ranks) each hold their own, and a buffer
// grows to the largest shape it has served. Contents are unspecified
// on loan; every kernel writing into a scratch buffer overwrites it.
type scratch struct{ wide, narrow []float32 }

// idleScratch holds the scratch sets not on loan. It is a plain free
// list rather than a sync.Pool: a pool keeps one object per P where no
// other P can take it and drops its objects at GC, which would
// re-allocate these multi-megabyte buffers whenever the backward's
// goroutine moved to another P or a collection ran mid-step.
var idleScratch struct {
	sync.Mutex
	sets []*scratch
}

// borrowScratch lends a scratch set; return it with release.
func borrowScratch() *scratch {
	idleScratch.Lock()
	defer idleScratch.Unlock()
	n := len(idleScratch.sets)
	if n == 0 {
		return new(scratch)
	}
	s := idleScratch.sets[n-1]
	idleScratch.sets = idleScratch.sets[:n-1]
	return s
}

func (s *scratch) release() {
	idleScratch.Lock()
	idleScratch.sets = append(idleScratch.sets, s)
	idleScratch.Unlock()
}

// MLP is the transformer feed-forward block: Linear → GELU → Linear.
type MLP struct {
	FC1 *Linear
	Act *GELU
	FC2 *Linear

	dx []float32 // the input gradient of Backward
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

// Backward propagates the feed-forward gradient and returns dL/dx in a
// buffer the layer owns, valid until its next Backward. The hidden
// gradient is a transient borrowed from the shared backward scratch.
func (m *MLP) Backward(dy []float32) []float32 {
	s := borrowScratch()
	m.dx = grow(m.dx, m.FC1.rows*m.FC1.In)
	s.wide = grow(s.wide, m.FC1.rows*m.FC1.Out)
	m.backward(m.dx, dy, s.wide)
	s.release()
	return m.dx
}

// backward is Backward writing dL/dx into the caller's dx; h is
// (rows × hidden) scratch that receives FC2's input gradient, which
// GELU's backward turns in place into FC1's output gradient. Neither
// may alias dy.
func (m *MLP) backward(dx, dy, h []float32) {
	m.FC2.backward(h, dy)
	m.Act.backward(h, h)
	m.FC1.backward(dx, h)
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

	y1, y2 []float32 // the residual sums
	dx     []float32 // the input gradient of Backward
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

// Backward propagates through both residual branches and returns
// dL/dx in a buffer the block owns, valid until its next Backward —
// the one (rows × width) gradient a block keeps. Every child's input
// gradient is a transient in a borrowed shared scratch set.
func (b *Block) Backward(dy []float32) []float32 {
	s := borrowScratch()
	dx := b.backward(dy, s)
	s.release()
	return dx
}

// backward runs Block.Backward on the scratch s.
func (b *Block) backward(dy []float32, s *scratch) []float32 {
	rows, n := b.LN1.rows, len(dy)
	s.wide = grow(s.wide, rows*max(b.MLP.FC1.Out, 3*b.Attn.Width))
	s.narrow = grow(s.narrow, n)
	wide, narrow := s.wide, s.narrow

	// MLP branch: FC2's and GELU's gradients in wide, FC1's in narrow,
	// LN2's back in wide.
	b.MLP.backward(narrow, dy, wide[:rows*b.MLP.FC1.Out])
	b.LN2.backward(wide[:n], narrow)
	// Gradient into y1 is the residual term plus the MLP branch.
	b.dx = grow(b.dx, n)
	tensor.Add(b.dx, dy, wide[:n])

	// Attention branch: the output projection's and QKV's gradients in
	// narrow, the fused head gradients in wide, LN1's back in wide.
	b.Attn.backward(narrow, b.dx, wide[:3*n])
	b.LN1.backward(wide[:n], narrow)
	// dx = dy1 + dln1, in place.
	tensor.Add(b.dx, b.dx, wide[:n])
	return b.dx
}
