// Package nn implements the neural-network layers used to build the
// ViT encoder and the MAE decoder: Linear, LayerNorm, GELU, multi-head
// self-attention, the transformer block, patch embedding with fixed
// 2-D sin-cos positional encodings, and the two losses the paper trains
// with (per-patch normalized MSE for MAE pretraining, cross-entropy for
// linear probing).
//
// Every layer implements an explicit forward/backward pair (the
// "modular backprop" style): Apply consumes a (rows × features) matrix
// of row-major float32 and returns the layer output; Backprop consumes
// the upstream gradient, accumulates parameter gradients, and writes
// the input gradient into memory the caller passes. Parallelism lives
// *inside* the kernels (see internal/tensor and internal/parallel).
//
// Ownership: every activation lives in an Arena the caller owns
// (arena.go). Apply takes its outputs and working buffers from the
// arena's scratch stack and, on a recording arena, keeps exactly what
// its backward re-reads on the kept stack, noting in the layer which
// slices those are (so a layer runs one recording pass at a time); on a
// frozen arena it keeps and notes nothing, so a frozen pass is the
// recording pass with no layer state written, and one read-only model
// serves concurrent workers. A backward takes its transients from the
// scratch top and rewinds: inside Block.Backprop every child's input
// gradient, and each forward tensor the block regenerates rather than
// keeps, is one of two transients that every block backpropagated at
// the same top shares, and a stack of blocks runs in place over one
// input gradient. A training step's activation footprint is therefore
// its recording arena's Bytes.
package nn

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// Param is a named trainable window of float32 values with its
// gradient accumulator of the same length. Layers read Value as a
// row-major matrix of the shape they were built with; after
// FlattenParams both slices are windows of the rank's flat buffers.
type Param struct {
	Name  string
	Value []float32
	Grad  []float32
	// NoWeightDecay marks parameters (biases, LayerNorm gains) that
	// AdamW must exclude from decoupled weight decay, following the
	// MAE recipe.
	NoWeightDecay bool
}

// NewParam allocates a zero parameter and matching zero gradient with
// as many elements as the product of shape.
func NewParam(name string, shape ...int) *Param {
	n := 1
	for _, d := range shape {
		n *= d
	}
	return &Param{Name: name, Value: make([]float32, n), Grad: make([]float32, n)}
}

// NumEl returns the parameter's element count.
func (p *Param) NumEl() int { return len(p.Value) }

// ZeroGrad clears the accumulated gradient.
func (p *Param) ZeroGrad() { clear(p.Grad) }

// CountParams sums the element counts over params.
func CountParams(ps []*Param) int {
	n := 0
	for _, p := range ps {
		n += p.NumEl()
	}
	return n
}

// FlattenParams re-homes ps into two contiguous buffers of n elements —
// FSDP's FlatParameter: every Value and Grad becomes a window of
// values / grads, in order, contents preserved, so the model computes
// on and accumulates into the very buffers a collective reduces or
// gathers and an optimizer steps, with no copy in between. n may exceed
// CountParams(ps) (padding to a ring-divisible length); the tail stays
// zero. The windows are cap-limited, so an append to one parameter cannot
// write into its neighbour.
func FlattenParams(ps []*Param, n int) (values, grads []float32) {
	if dim := CountParams(ps); n < dim {
		panic(fmt.Sprintf("nn: flattening %d parameter elements into a buffer of %d", dim, n))
	}
	values, grads = make([]float32, n), make([]float32, n)
	off := 0
	for _, p := range ps {
		end := off + p.NumEl()
		copy(values[off:end], p.Value)
		copy(grads[off:end], p.Grad)
		p.Value, p.Grad = values[off:end:end], grads[off:end:end]
		off = end
	}
	return values, grads
}

// ZeroGrads clears every gradient in ps.
func ZeroGrads(ps []*Param) {
	for _, p := range ps {
		p.ZeroGrad()
	}
}

// GradL2Norm returns the global L2 norm across all gradients, as used
// for gradient clipping. Every gradient enters the accumulator at its
// offset in the packed flat order, which makes the sum the bits a walk
// of the flat gradient buffer — whole or span by span — produces.
func GradL2Norm(ps []*Param) float64 {
	var s tensor.SumSq
	off := 0
	for _, p := range ps {
		s.Add(p.Grad, off)
		off += len(p.Grad)
	}
	return math.Sqrt(s.Sum())
}

// ClipGradNorm scales all gradients so the global norm does not exceed
// maxNorm; returns the pre-clip norm.
func ClipGradNorm(ps []*Param, maxNorm float64) float64 {
	norm := GradL2Norm(ps)
	if norm > maxNorm && norm > 0 {
		scale := float32(maxNorm / norm)
		for _, p := range ps {
			tensor.Scale(p.Grad, p.Grad, scale)
		}
	}
	return norm
}

func checkRows(n, rows, cols int, layer string) {
	if rows*cols != n {
		panic(fmt.Sprintf("nn: %s got %d values for %d rows × %d cols", layer, n, rows, cols))
	}
}
