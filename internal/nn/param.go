// Package nn implements the neural-network layers used to build the
// ViT encoder and the MAE decoder: Linear, LayerNorm, GELU, multi-head
// self-attention, the transformer block, patch embedding with fixed
// 2-D sin-cos positional encodings, and the two losses the paper trains
// with (per-patch normalized MSE for MAE pretraining, cross-entropy for
// linear probing).
//
// Every layer implements an explicit Forward/Backward pair with cached
// activations (the "modular backprop" style): Forward consumes a
// (rows × features) matrix of row-major float32 and returns the layer
// output; Backward consumes the upstream gradient, accumulates
// parameter gradients, and returns the input gradient. Layers reuse
// internal buffers across steps, so a layer instance must not be used
// from multiple goroutines concurrently — parallelism lives *inside*
// the kernels (see internal/tensor and internal/parallel).
//
// Ownership: what a backward must re-read — forward caches and
// outputs — stays in the layers for the whole step. Backward
// transients do not: inside Block.Backward every child's input
// gradient is written into a scratch set the block borrows for its
// duration and that every block in the process shares (scratch in
// block.go), so a trained block keeps one input gradient, its own. A
// layer's exported Backward is a thin wrapper that hands the same
// unexported backward its own output buffer (valid until the layer's
// next Backward); one arithmetic path serves both.
package nn

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// Param is a trainable tensor with its gradient accumulator. Optimizers
// consume pairs of (Value, Grad) slices.
type Param struct {
	Name  string
	Value *tensor.Tensor
	Grad  *tensor.Tensor
	// NoWeightDecay marks parameters (biases, LayerNorm gains) that
	// AdamW must exclude from decoupled weight decay, following the
	// MAE recipe.
	NoWeightDecay bool
	// BF16, when non-nil, is a bf16 encoding of Value that Linear.Infer
	// streams through the bf16-input GEMM instead of the fp32 weights —
	// half the weight-read bandwidth. Set by ShadowBF16; training always
	// reads Value.
	BF16 []uint16
}

// NewParam allocates a parameter and matching zero gradient.
func NewParam(name string, shape ...int) *Param {
	return &Param{
		Name:  name,
		Value: tensor.New(shape...),
		Grad:  tensor.New(shape...),
	}
}

// NumEl returns the parameter's element count.
func (p *Param) NumEl() int { return p.Value.NumEl() }

// ZeroGrad clears the accumulated gradient.
func (p *Param) ZeroGrad() { p.Grad.Zero() }

// ShadowBF16 packs the BF16 shadow of every 2-D parameter in ps — the
// weight matrices; vectors (biases, norm gains) get none. When Value
// already holds bf16-resolution numbers (tensor.RoundBF16 first), the
// encoding is exact and Infer's results are bitwise unchanged:
// MatMulBF16 equals MatMul over the widened shadow. Call it again after
// any change to the values.
func ShadowBF16(ps []*Param) {
	for _, p := range ps {
		if p.Value.Rank() != 2 {
			continue
		}
		if len(p.BF16) != p.NumEl() {
			p.BF16 = make([]uint16, p.NumEl())
		}
		tensor.ToBF16(p.BF16, p.Value.Data)
	}
}

// CountParams sums the element counts over params.
func CountParams(ps []*Param) int {
	n := 0
	for _, p := range ps {
		n += p.NumEl()
	}
	return n
}

// FlattenParams re-homes ps into two contiguous buffers of n elements —
// FSDP's FlatParameter: every Value.Data and Grad.Data becomes a window
// of values / grads, in order, contents preserved, so the model computes
// on and accumulates into the very buffers a collective reduces or
// gathers and an optimizer steps, with no copy in between. n may exceed
// CountParams(ps) (padding to a ring-divisible length); the tail stays
// zero. The windows are cap-limited, so an append to one tensor cannot
// write into its neighbour.
func FlattenParams(ps []*Param, n int) (values, grads []float32) {
	if dim := CountParams(ps); n < dim {
		panic(fmt.Sprintf("nn: flattening %d parameter elements into a buffer of %d", dim, n))
	}
	values, grads = make([]float32, n), make([]float32, n)
	off := 0
	for _, p := range ps {
		end := off + p.NumEl()
		copy(values[off:end], p.Value.Data)
		copy(grads[off:end], p.Grad.Data)
		p.Value.Data, p.Grad.Data = values[off:end:end], grads[off:end:end]
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
		s.Add(p.Grad.Data, off)
		off += len(p.Grad.Data)
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
			tensor.Scale(p.Grad.Data, p.Grad.Data, scale)
		}
	}
	return norm
}

// grow returns buf resized to n elements, reusing capacity when
// possible. Contents are unspecified.
func grow(buf []float32, n int) []float32 {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]float32, n)
}

func checkRows(n, rows, cols int, layer string) {
	if rows*cols != n {
		panic(fmt.Sprintf("nn: %s got %d values for %d rows × %d cols", layer, n, rows, cols))
	}
}
