package nn

import "repro/internal/tensor"

// GELU is the Gaussian Error Linear Unit with the tanh approximation
// used by the original ViT/MAE code:
//
//	gelu(x) = 0.5·x·(1 + tanh(√(2/π)·(x + 0.044715·x³)))
//
// evaluated by the float32 tensor.GELU kernel — Forward, Backward and
// Infer all call the one kernel, so serving equals training bitwise by
// construction. The layer is stateless apart from caching its input
// for backward.
type GELU struct {
	x     []float32
	y, dx []float32
}

// NewGELU returns a GELU activation layer.
func NewGELU() *GELU { return &GELU{} }

// Params returns nil: GELU has no trainable parameters.
func (g *GELU) Params() []*Param { return nil }

// Forward applies the activation elementwise.
func (g *GELU) Forward(x []float32, rows int) []float32 {
	g.x = x
	g.y = grow(g.y, len(x))
	tensor.GELU(g.y, x)
	return g.y
}

// Backward multiplies dy by the activation derivative, recomputed
// from the cached input.
func (g *GELU) Backward(dy []float32) []float32 {
	g.dx = grow(g.dx, len(dy))
	tensor.GELUBackward(g.dx, dy, g.x)
	return g.dx
}
