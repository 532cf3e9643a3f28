package vit

import (
	"strconv"

	"repro/internal/nn"
	"repro/internal/rng"
)

// Stack is a run of pre-norm transformer blocks with a final LayerNorm:
// the trunk shared by MAE pretraining (over visible tokens) and
// downstream classification (over all tokens), and MAE's lightweight
// decoder (over the full grid).
type Stack struct {
	Blocks []*nn.Block
	Norm   *nn.LayerNorm
}

// NewStack builds depth blocks of the given width, MLP hidden size and
// head count, named prefix.block<i>, and the final prefix.norm.
func NewStack(prefix string, width, depth, mlp, heads int, r *rng.RNG) *Stack {
	s := &Stack{Norm: nn.NewLayerNorm(prefix+".norm", width)}
	for i := 0; i < depth; i++ {
		s.Blocks = append(s.Blocks, nn.NewBlock(prefix+".block"+strconv.Itoa(i), width, mlp, heads, r))
	}
	return s
}

// Params returns all stack parameters in layer order.
func (s *Stack) Params() []*nn.Param {
	var ps []*nn.Param
	for _, b := range s.Blocks {
		ps = append(ps, b.Params()...)
	}
	return append(ps, s.Norm.Params()...)
}

// Apply runs the stack over batch sequences of tokens tokens each,
// every activation in ctx.
func (s *Stack) Apply(ctx *nn.Arena, x []float32, batch, tokens int) []float32 {
	h := x
	for _, b := range s.Blocks {
		h = b.Apply(ctx, h, batch, tokens)
	}
	return s.Norm.Apply(ctx, h, batch*tokens)
}

// Backprop propagates dy back through the stack and writes dL/dx into
// the caller's dx, which must not alias dy: the final LayerNorm's
// backward fills dx, and every block then runs in place over it. yield
// (if non-nil) runs after the norm's backward and again after each
// block's, in execution (reverse) order, one call per Segments unit — at
// each call the unit just completed has final parameter gradients. This
// is the hook the executed communication-overlap path uses to launch a
// unit's gradient collective while the remaining blocks keep computing;
// the arithmetic does not depend on it, so overlapped and synchronous
// schedules train bit-identical trajectories.
func (s *Stack) Backprop(ctx *nn.Arena, dx, dy []float32, yield func()) {
	s.Norm.Backprop(dx, dy)
	if yield != nil {
		yield()
	}
	for i := len(s.Blocks) - 1; i >= 0; i-- {
		s.Blocks[i].Backprop(ctx, dx, dx)
		if yield != nil {
			yield()
		}
	}
}

// Segments returns the stack's parameters grouped into Backprop's
// completion units, in completion order: the final norm, then the
// blocks top down.
func (s *Stack) Segments() [][]*nn.Param {
	segs := [][]*nn.Param{s.Norm.Params()}
	for i := len(s.Blocks) - 1; i >= 0; i-- {
		segs = append(segs, s.Blocks[i].Params())
	}
	return segs
}
