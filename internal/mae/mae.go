// Package mae implements the Masked Autoencoder pretraining
// architecture the paper uses (He et al., adapted for remote-sensing
// imagery): the ViT encoder runs over the ~25% of patches left visible
// after random masking, a lightweight transformer decoder reconstructs
// every patch from the encoded visible tokens plus a learned mask
// token, and the loss is mean squared error against per-patch
// normalized pixels of the masked patches only.
//
// The decoder follows the paper's (and MAE's) default: 8 blocks of
// width 512 with 16 heads, responsible for <10% of the FLOPs per token
// relative to a large encoder.
package mae

import (
	"fmt"
	"math"

	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/tensor"
	"repro/internal/vit"
)

// Config couples an encoder variant with the MAE-specific settings.
type Config struct {
	Encoder      vit.Config
	DecoderWidth int
	DecoderDepth int
	DecoderHeads int
	MaskRatio    float64
}

// Default returns the paper's MAE configuration for the given encoder:
// decoder 512×8 with 16 heads and 75% masking. For narrow analog
// encoders the decoder is scaled down proportionally so it stays
// "lightweight" relative to the encoder.
func Default(enc vit.Config) Config {
	dw, dd, dh := 512, 8, 16
	if enc.Width < dw {
		// Analog regime: half the encoder width (min 16), two blocks
		// shallower, heads matching divisibility.
		dw = enc.Width / 2
		if dw < 16 {
			dw = 16
		}
		if dw%4 != 0 {
			dw += 4 - dw%4
		}
		dd = enc.Depth/2 + 1
		dh = 2
		for dh*2 <= 8 && dw%(dh*2) == 0 {
			dh *= 2
		}
	}
	return Config{Encoder: enc, DecoderWidth: dw, DecoderDepth: dd, DecoderHeads: dh, MaskRatio: 0.75}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if err := c.Encoder.Validate(); err != nil {
		return err
	}
	if t := c.Encoder.Tokens(); t < 2 {
		return fmt.Errorf("mae: %d patch token(s) per image, want at least 2 (one kept, one masked)", t)
	}
	if c.MaskRatio <= 0 || c.MaskRatio >= 1 {
		return fmt.Errorf("mae: mask ratio %v outside (0,1)", c.MaskRatio)
	}
	if c.DecoderWidth%c.DecoderHeads != 0 {
		return fmt.Errorf("mae: decoder width %d not divisible by heads %d", c.DecoderWidth, c.DecoderHeads)
	}
	if c.DecoderWidth%4 != 0 {
		return fmt.Errorf("mae: decoder width %d not divisible by 4", c.DecoderWidth)
	}
	return nil
}

// KeepTokens returns the number of visible tokens per image.
func (c Config) KeepTokens() int {
	t := c.Encoder.Tokens()
	keep := int(math.Round(float64(t) * (1 - c.MaskRatio)))
	if keep < 1 {
		keep = 1
	}
	if keep >= t {
		keep = t - 1
	}
	return keep
}

// Model is the trainable MAE.
type Model struct {
	Cfg Config

	Embed     *nn.PatchEmbed
	Encoder   *vit.Stack
	DecEmbed  *nn.Linear
	MaskToken *nn.Param
	Decoder   *vit.Stack
	Pred      *nn.Linear
	DecPos    []float32 // fixed sin-cos over the full grid, decoder width

	maskRNG *rng.RNG
	// ctx is the replica's recording arena: a training step's (or
	// FeaturesWithGrad's) activations and backward transients. frozen
	// holds Features' and TokenFeatures' activations, apart from it.
	ctx, frozen *nn.Arena

	// per-step state
	batch   int
	keepIdx [][]int // visible patch indices per image (sorted)
	maskIdx [][]int // masked patch indices per image
	visRows []int   // the visible patches' positions in the batch's grid
	visMask []bool
	dPred   []float32 // the loss gradient forward leaves in ctx for backward
}

// New constructs the model with weights drawn from r and an independent
// masking stream split from r.
func New(cfg Config, r *rng.RNG) *Model {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	enc := cfg.Encoder
	g := enc.Grid()
	m := &Model{
		Cfg:       cfg,
		Embed:     nn.NewPatchEmbed("mae.embed", enc.PatchDim(), enc.Width, g, g, r),
		Encoder:   vit.NewStack("encoder", enc.Width, enc.Depth, enc.MLP, enc.Heads, r),
		DecEmbed:  nn.NewLinear("mae.dec_embed", enc.Width, cfg.DecoderWidth, r),
		MaskToken: nn.NewParam("mae.mask_token", cfg.DecoderWidth),
		Pred:      nn.NewLinear("mae.pred", cfg.DecoderWidth, enc.PatchDim(), r),
		DecPos:    nn.SinCos2D(cfg.DecoderWidth, g, g),
		maskRNG:   r.Split(),
		ctx:       nn.NewTrainCtx(),
		frozen:    nn.NewInferCtx(),
	}
	m.MaskToken.NoWeightDecay = true
	r.FillNormal(m.MaskToken.Value, 0, 0.02)
	m.Decoder = vit.NewStack("mae.dec", cfg.DecoderWidth, cfg.DecoderDepth, 4*cfg.DecoderWidth, cfg.DecoderHeads, r)
	return m
}

// Params returns every trainable parameter.
func (m *Model) Params() []*nn.Param {
	ps := m.Embed.Params()
	ps = append(ps, m.Encoder.Params()...)
	ps = append(ps, m.DecEmbed.Params()...)
	ps = append(ps, m.MaskToken)
	ps = append(ps, m.Decoder.Params()...)
	return append(ps, m.Pred.Params()...)
}

// ActivationBytes returns the bytes the model's recording arena holds
// (nn.Arena.Bytes): after a training step, the step's activation
// footprint.
func (m *Model) ActivationBytes() int { return m.ctx.Bytes() }

// EncoderParams returns only the encoder-side parameters (embed +
// trunk), i.e. what survives into downstream adaptation.
func (m *Model) EncoderParams() []*nn.Param {
	return append(m.Embed.Params(), m.Encoder.Params()...)
}

// sampleMask draws a fresh random mask for each image: keep visible
// indices sorted so token order within the encoder is stable.
func (m *Model) sampleMask(batch int) {
	t := m.Cfg.Encoder.Tokens()
	keep := m.Cfg.KeepTokens()
	if cap(m.keepIdx) < batch {
		m.keepIdx = make([][]int, batch)
		m.maskIdx = make([][]int, batch)
	}
	m.keepIdx = m.keepIdx[:batch]
	m.maskIdx = m.maskIdx[:batch]
	for b := 0; b < batch; b++ {
		perm := m.maskRNG.Perm(t)
		kept := append([]int(nil), perm[:keep]...)
		masked := append([]int(nil), perm[keep:]...)
		insertionSort(kept)
		insertionSort(masked)
		m.keepIdx[b] = kept
		m.maskIdx[b] = masked
	}
}

// DrawMasks advances the model's private mask stream by one batch and
// returns the per-image visible-token index lists (sorted), without
// running the model. It consumes the stream exactly as one Step(·,
// batch) call would, which is what multi-rank data-parallel training
// relies on: every rank holds a seed-identical replica, draws the masks
// for the whole global batch, and keeps only its local slice (via
// ForwardWithMask) — so the mask sequence, and hence the loss trajectory,
// matches the single-rank run.
func (m *Model) DrawMasks(batch int) [][]int {
	return m.DrawMasksRange(batch, 0, batch)
}

// DrawMasksRange is DrawMasks restricted to images [lo, hi) of the
// batch: the mask stream is still advanced for all batch images (so
// rank streams stay aligned), but only the requested slice is
// materialized and sorted — what each data-parallel rank calls with its
// own slice of the global batch.
func (m *Model) DrawMasksRange(batch, lo, hi int) [][]int {
	if lo < 0 || hi < lo || hi > batch {
		panic(fmt.Sprintf("mae: mask range [%d, %d) outside batch %d", lo, hi, batch))
	}
	t := m.Cfg.Encoder.Tokens()
	keep := m.Cfg.KeepTokens()
	scratch := make([]int, t)
	out := make([][]int, hi-lo)
	for b := 0; b < batch; b++ {
		for i := range scratch {
			scratch[i] = i
		}
		m.maskRNG.Shuffle(scratch) // same draws as sampleMask's Perm
		if b < lo || b >= hi {
			continue
		}
		kept := append([]int(nil), scratch[:keep]...)
		insertionSort(kept)
		out[b-lo] = kept
	}
	return out
}

// SkipMasks advances the mask stream past batches whole batches of the
// given batch size without materializing anything — exactly what
// `batches` training steps would have consumed. A resumed run calls
// this so its mask sequence continues where the interrupted run's
// checkpoint left off.
func (m *Model) SkipMasks(batches, batch int) {
	for i := 0; i < batches; i++ {
		m.DrawMasksRange(batch, 0, 0)
	}
}

// SetMask overrides the random mask with explicit per-image visible
// indices, each image's ascending (as DrawMasks returns them); used by
// tests for reproducible gradient checks.
func (m *Model) SetMask(keep [][]int) {
	t := m.Cfg.Encoder.Tokens()
	for b, kv := range keep {
		for i, k := range kv {
			if k < 0 || k >= t || (i > 0 && k <= kv[i-1]) {
				panic(fmt.Sprintf("mae: image %d's visible indices %v do not ascend strictly in [0, %d)", b, kv, t))
			}
		}
	}
	m.keepIdx = keep
	if cap(m.maskIdx) < len(keep) {
		m.maskIdx = make([][]int, len(keep))
	}
	m.maskIdx = m.maskIdx[:len(keep)]
	in := m.tokenMask()
	for b, kv := range keep {
		clear(in)
		for _, k := range kv {
			in[k] = true
		}
		masked := m.maskIdx[b][:0]
		for i := 0; i < t; i++ {
			if !in[i] {
				masked = append(masked, i)
			}
		}
		m.maskIdx[b] = masked
	}
}

// tokenMask returns the model's one-flag-per-token scratch, contents
// unspecified.
func (m *Model) tokenMask() []bool {
	t := m.Cfg.Encoder.Tokens()
	if cap(m.visMask) < t {
		m.visMask = make([]bool, t)
	}
	return m.visMask[:t]
}

// Step runs a full forward and backward pass over channel-last images
// (batch × H·W·C) with a fresh random mask, accumulating parameter
// gradients, and returns the reconstruction loss. Callers zero
// gradients and apply the optimizer.
func (m *Model) Step(imgs []float32, batch int) float64 {
	m.sampleMask(batch)
	loss := m.forward(imgs, batch)
	m.backward(batch)
	return loss
}

// ForwardWithMask runs only the forward half of a step — the
// reconstruction loss with a caller-supplied mask, activations kept in
// the model's recording arena — so a distributed executor can reshard
// parameters between the halves (FULL_SHARD drops non-owned parameter
// shards after forward and re-gathers them for backward). Follow with
// BackwardStep to accumulate gradients.
func (m *Model) ForwardWithMask(imgs []float32, batch int, keep [][]int) float64 {
	m.SetMask(keep)
	return m.forward(imgs, batch)
}

// BackwardStep runs the backward half for the most recent
// ForwardWithMask, accumulating parameter gradients from the recorded
// activations and the parameters' current values — which must equal
// the values forward ran with (a resharding executor restores them via
// all-gather first).
func (m *Model) BackwardStep() {
	m.backward(m.batch)
}

// BackwardStepLayers is BackwardStep at unit granularity: onUnit (if
// non-nil) runs with index k once unit L−1−k of the unit table
// (perfmodel.Workload.Units, L units in flat order) has final
// gradients. Parameters pack in flat order (Params) and backward
// finalizes them in reverse, so at event k every flat gradient from
// that unit's start up is final: a distributed executor launches each
// bucket's collective then (FSDP's per-unit overlapped reduce-scatter,
// executed). The events run pred, dec_norm, the decoder blocks top
// down, dec_embed (with the mask token, whose gradient finishes in the
// decoder input split), enc_norm, the encoder blocks top down, embed.
// BackwardStep delegates here with a nil callback, so overlapped and
// synchronous schedules run identical arithmetic.
func (m *Model) BackwardStepLayers(onUnit func(k int)) {
	m.backwardLayers(m.batch, onUnit)
}

// forward is a step's forward half on the model's recording arena,
// which it resets. Only the visible patches are embedded: the encoder
// never reads the masked ones. What a later phase reads stays kept
// until the next forward: the patches (the targets read them), the
// visible patches (the patch embedding's weight gradient), every
// layer's caches, the two stacks' outputs and the loss gradient.
// Everything else — the embedded visible patches, the decoder input,
// the prediction, the targets and the masked gathers — is scratch,
// handed back before forward returns.
func (m *Model) forward(imgs []float32, batch int) float64 {
	cfg := m.Cfg
	enc := cfg.Encoder
	t := enc.Tokens()
	pd := enc.PatchDim()
	w := enc.Width
	dw := cfg.DecoderWidth
	keep := len(m.keepIdx[0])
	m.batch = batch
	ctx := m.ctx
	ctx.Reset()
	mark := ctx.Mark()

	// 1. Patchify; the targets read every patch.
	patches := ctx.Take(batch * t * pd)
	nn.Patchify(patches, imgs, batch, enc.ImageSize, enc.ImageSize, enc.Channels, enc.PatchSize)

	// 2. Gather the visible patches and embed them alone, each with its
	// grid position's encoding: the encoder's residual stream.
	visPatches := ctx.Take(batch * keep * pd)
	rows := m.visRows[:0]
	for b := 0; b < batch; b++ {
		tensor.GatherRows(visPatches[b*keep*pd:], patches[b*t*pd:], m.keepIdx[b], pd)
		for _, g := range m.keepIdx[b] {
			rows = append(rows, b*t+g)
		}
	}
	m.visRows = rows
	visible := m.Embed.ApplyRows(ctx, visPatches, rows, batch)

	// 3. Encode visible tokens in place; DecEmbed's weight gradient
	// reads the output.
	encOut := ctx.Take(batch * keep * w)
	copy(encOut, m.Encoder.Apply(ctx, visible, batch, keep))
	ctx.Rewind(mark)

	// 4. Project to decoder width.
	decVis := m.DecEmbed.Apply(ctx, encOut, batch*keep)

	// 5. Assemble full decoder sequence: mask tokens everywhere, then
	// scatter encoded visible tokens back to their grid positions, then
	// add decoder positional encodings.
	decIn := ctx.Scratch(batch * t * dw)
	mt := m.MaskToken.Value
	for row := 0; row < batch*t; row++ {
		copy(decIn[row*dw:(row+1)*dw], mt)
	}
	for b := 0; b < batch; b++ {
		for i, g := range m.keepIdx[b] {
			copy(decIn[(b*t+g)*dw:(b*t+g+1)*dw], decVis[(b*keep+i)*dw:(b*keep+i+1)*dw])
		}
	}
	for row := 0; row < batch*t; row++ {
		pos := m.DecPos[(row%t)*dw : (row%t+1)*dw]
		seg := decIn[row*dw : (row+1)*dw]
		for j := range seg {
			seg[j] += pos[j]
		}
	}

	// 6. Decode in place (Pred's weight gradient reads the output) and
	// predict pixels for every token.
	decOut := ctx.Take(batch * t * dw)
	copy(decOut, m.Decoder.Apply(ctx, decIn, batch, t))
	ctx.Rewind(mark)
	pred := m.Pred.Apply(ctx, decOut, batch*t)

	// 7. Normalized-pixel targets, and the loss on masked positions only.
	target := ctx.Scratch(batch * t * pd)
	nn.NormalizePatches(target, patches, batch*t, pd, 1e-6)
	nMask := t - keep
	predMask := ctx.Scratch(batch * nMask * pd)
	tgtMask := ctx.Scratch(batch * nMask * pd)
	for b := 0; b < batch; b++ {
		tensor.GatherRows(predMask[b*nMask*pd:], pred[b*t*pd:], m.maskIdx[b], pd)
		tensor.GatherRows(tgtMask[b*nMask*pd:], target[b*t*pd:], m.maskIdx[b], pd)
	}
	m.dPred = ctx.Take(batch * nMask * pd)
	loss := nn.MSE(predMask, tgtMask, m.dPred)
	ctx.Rewind(mark)
	return loss
}

func (m *Model) backward(batch int) {
	m.backwardLayers(batch, nil)
}

// backwardLayers is the single backward implementation, emitting a
// completion event per unit (events are counted even with a nil
// callback so unit indices stay aligned). Every gradient
// that passes between units lives in one of two scratch buffers, g0
// and g1, taken first and each sized by the largest role it plays: a
// unit reads one and writes the other. The blocks' narrow and wide
// transients above them then sit at the scratch depths of a decoder
// block's forward working set, one top that encoder and decoder blocks
// share; all of it is handed back at the end.
func (m *Model) backwardLayers(batch int, onUnit func(k int)) {
	event := 0
	emit := func() {
		if onUnit != nil {
			onUnit(event)
		}
		event++
	}
	cfg := m.Cfg
	enc := cfg.Encoder
	t := enc.Tokens()
	pd := enc.PatchDim()
	w := enc.Width
	dw := cfg.DecoderWidth
	keep := len(m.keepIdx[0])
	nMask := t - keep
	ctx := m.ctx
	mark := ctx.Mark()
	re, rd := batch*keep, batch*t // the encoder's and the decoder's rows
	g0 := ctx.Scratch(max(rd*dw, re*dw, re*w))
	g1 := ctx.Scratch(max(rd*pd, rd*dw, re*w))

	// Scatter masked-pixel gradient into the full prediction grid
	// (visible positions receive zero).
	dFull := g1[:rd*pd]
	clear(dFull)
	for b := 0; b < batch; b++ {
		tensor.ScatterRowsAdd(dFull[b*t*pd:], m.dPred[b*nMask*pd:], m.maskIdx[b], pd)
	}
	dNormed := g0[:rd*dw]
	m.Pred.Backprop(dNormed, dFull)
	emit()
	dDec := g1[:rd*dw]
	m.Decoder.Backprop(ctx, dDec, dNormed, emit)

	// dDec now holds the gradient w.r.t. the decoder input sequence.
	// Split it: visible positions flow to the encoder path, all other
	// positions accumulate into the mask token.
	dVisible := g0[:re*dw]
	visMask := m.tokenMask()
	mtGrad := m.MaskToken.Grad
	for b := 0; b < batch; b++ {
		clear(visMask)
		for i, g := range m.keepIdx[b] {
			visMask[g] = true
			copy(dVisible[(b*keep+i)*dw:(b*keep+i+1)*dw], dDec[(b*t+g)*dw:(b*t+g+1)*dw])
		}
		for g := 0; g < t; g++ {
			if !visMask[g] {
				seg := dDec[(b*t+g)*dw : (b*t+g+1)*dw]
				for j := range mtGrad {
					mtGrad[j] += seg[j]
				}
			}
		}
	}

	dEnc := g1[:re*w]
	m.DecEmbed.Backprop(dEnc, dVisible)
	emit() // DecEmbed + MaskToken (accumulated in the split above)
	dVis := g0[:re*w]
	m.Encoder.Backprop(ctx, dVis, dEnc, emit)

	// The patch embedding embedded the visible patches alone, so its
	// weight gradient runs over their rows.
	m.Embed.Backprop(dVis)
	emit()
	ctx.Rewind(mark)
}

func insertionSort(a []int) {
	for i := 1; i < len(a); i++ {
		v := a[i]
		j := i - 1
		for j >= 0 && a[j] > v {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = v
	}
}
