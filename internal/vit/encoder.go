package vit

import (
	"repro/internal/nn"
	"repro/internal/rng"
)

// Encoder is a stack of pre-norm transformer blocks with a final
// LayerNorm — the trunk shared by MAE pretraining (over visible tokens)
// and downstream classification (over all tokens).
type Encoder struct {
	Cfg    Config
	Blocks []*nn.Block
	Norm   *nn.LayerNorm
}

// NewEncoder builds the block stack for cfg.
func NewEncoder(cfg Config, r *rng.RNG) *Encoder {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	e := &Encoder{Cfg: cfg, Norm: nn.NewLayerNorm("encoder.norm", cfg.Width)}
	for i := 0; i < cfg.Depth; i++ {
		e.Blocks = append(e.Blocks,
			nn.NewBlock(blockName("encoder", i), cfg.Width, cfg.MLP, cfg.Heads, r))
	}
	return e
}

// Params returns all encoder parameters in layer order.
func (e *Encoder) Params() []*nn.Param {
	var ps []*nn.Param
	for _, b := range e.Blocks {
		ps = append(ps, b.Params()...)
	}
	return append(ps, e.Norm.Params()...)
}

// Forward runs the stack over batch sequences of tokens tokens each.
func (e *Encoder) Forward(x []float32, batch, tokens int) []float32 {
	h := x
	for _, b := range e.Blocks {
		h = b.Forward(h, batch, tokens)
	}
	return e.Norm.Forward(h, batch*tokens)
}

// Infer runs the stack without touching the layers' backward caches:
// activations live in the caller's InferCtx, so a shared read-only
// Encoder serves any number of worker goroutines, one ctx each. It is
// the frozen-feature pass of probing and serving alike. The arithmetic
// is Forward's — same kernels, same parallel grains — so the output is
// bitwise identical.
func (e *Encoder) Infer(ctx *nn.InferCtx, x []float32, batch, tokens int) []float32 {
	h := x
	for _, b := range e.Blocks {
		h = b.Infer(ctx, h, batch, tokens)
	}
	return e.Norm.Infer(ctx, h, batch*tokens)
}

// Backward propagates through the stack in reverse.
func (e *Encoder) Backward(dy []float32) []float32 {
	return e.BackwardLayers(dy, nil)
}

// BackwardLayers is Backward at layer granularity: yield (if non-nil)
// runs after the final LayerNorm's backward and again after each
// block's backward, in execution (reverse) order — at each call the
// unit just completed has final parameter gradients. This is the hook
// the executed communication-overlap path uses to launch a unit's
// gradient collective the moment backward is done with it, while the
// remaining blocks keep computing. The arithmetic is identical to
// Backward's (Backward delegates here), so overlapped and synchronous
// schedules train bit-identical trajectories.
func (e *Encoder) BackwardLayers(dy []float32, yield func()) []float32 {
	d := e.Norm.Backward(dy)
	if yield != nil {
		yield()
	}
	for i := len(e.Blocks) - 1; i >= 0; i-- {
		d = e.Blocks[i].Backward(d)
		if yield != nil {
			yield()
		}
	}
	return d
}

func blockName(prefix string, i int) string {
	// Avoid fmt in the hot path of model construction; simple itoa.
	return prefix + ".block" + itoa(i)
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var buf [8]byte
	pos := len(buf)
	for i > 0 {
		pos--
		buf[pos] = byte('0' + i%10)
		i /= 10
	}
	return string(buf[pos:])
}
