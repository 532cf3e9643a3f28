package nn

import "repro/internal/tensor"

// GELU is the Gaussian Error Linear Unit with the tanh approximation
// used by the original ViT/MAE code:
//
//	gelu(x) = 0.5·x·(1 + tanh(√(2/π)·(x + 0.044715·x³)))
//
// evaluated by the float32 tensor.GELU kernel — training and serving
// call the one kernel, so they agree bitwise by construction. The layer
// is stateless apart from recording its input for backward.
type GELU struct {
	x []float32 // Backprop's input, recorded by Apply on a recording arena

	fwdShim *Arena
}

// NewGELU returns a GELU activation layer.
func NewGELU() *GELU { return &GELU{} }

// Params returns nil: GELU has no trainable parameters.
func (g *GELU) Params() []*Param { return nil }

// Apply applies the activation elementwise into a scratch slot of ctx.
// A recording arena records x, which the caller keeps until Backprop.
func (g *GELU) Apply(ctx *Arena, x []float32) []float32 {
	y := ctx.Scratch(len(x))
	g.apply(ctx, y, x)
	return y
}

// apply is Apply into the caller's y, recording x on a recording arena:
// the MLP keeps x, its pre-activation, and not y.
func (g *GELU) apply(ctx *Arena, y, x []float32) {
	if ctx.recording {
		g.x = x
	}
	tensor.GELU(y, x)
}

// output regenerates the last recording Apply's output GELU(x) from the
// recorded x into the caller's y: the same kernel, so the same bits.
func (g *GELU) output(y []float32) { tensor.GELU(y, g.x) }

// Backprop multiplies dy by the activation derivative, recomputed from
// the recorded input, into the caller's dx, which may alias dy: the MLP
// runs it in place over FC2's input gradient.
func (g *GELU) Backprop(dx, dy []float32) { tensor.GELUBackward(dx, dy, g.x) }
