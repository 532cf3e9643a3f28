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

// Apply runs the stack over batch sequences of tokens tokens each and
// returns the final norm's output, a scratch slot of ctx. The blocks run
// in place over x, the residual stream, which holds the last block's
// output afterwards: every block reuses one scratch working set, and a
// frozen pass keeps nothing else.
func (s *Stack) Apply(ctx *nn.Arena, x []float32, batch, tokens int) []float32 {
	for _, b := range s.Blocks {
		b.Apply(ctx, x, batch, tokens)
	}
	return s.Norm.Apply(ctx, x, batch*tokens)
}

// Backprop propagates dy back through the stack and writes dL/dx into
// the caller's dx, which must not alias dy: the final LayerNorm's
// backward fills dx, and every block then runs in place over it. yield
// (if non-nil) runs after the norm's backward and again after each
// block's, in execution (reverse) order — at each call the norm or
// block just completed has final parameter gradients. This is the hook
// the executed communication-overlap path uses to launch a unit's
// gradient collective while the remaining blocks keep computing; the
// arithmetic does not depend on it, so overlapped and synchronous
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
