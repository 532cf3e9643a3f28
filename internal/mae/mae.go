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

// NumParams returns the analytic parameter count of the full MAE model
// (encoder + decoder + mask token + projections), mirrored by the live
// model in tests.
func (c Config) NumParams() int64 {
	enc := c.Encoder.EncoderParams()
	w := int64(c.Encoder.Width)
	dw := int64(c.DecoderWidth)
	dm := 4 * dw
	pd := int64(c.Encoder.PatchDim())
	dec := w*dw + dw // encoder→decoder projection
	blk := vit.Config{Width: int(dw), MLP: int(dm)}.BlockParams()
	dec += int64(c.DecoderDepth) * blk
	dec += 2 * dw     // decoder final norm
	dec += dw*pd + pd // prediction head
	dec += dw         // mask token
	return enc + dec
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
	m.MaskToken.Value.RandnInit(r, 0.02)
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
// indices; used by tests for reproducible gradient checks.
func (m *Model) SetMask(keep [][]int) {
	t := m.Cfg.Encoder.Tokens()
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

// BackwardSegments returns the model's parameters grouped into the
// gradient-completion units of the layer-granular backward pass, in
// completion order: when BackwardStepLayers invokes its callback with
// index k, every parameter of segment k (and of all earlier segments)
// has final accumulated gradients and is never touched again this
// step.
//
// Because parameters pack in forward order (Params) and backward
// finalizes them in exact reverse order, the segments tile the flat
// parameter space contiguously from the top down — segment k covers
// the flat range immediately below segment k−1 — which is what lets a
// distributed executor map completion events onto flat gradient
// buckets and launch each bucket's collective as soon as its range is
// final (the executed form of FSDP's per-unit overlapped
// reduce-scatter).
func (m *Model) BackwardSegments() [][]*nn.Param {
	segs := append([][]*nn.Param{m.Pred.Params()}, m.Decoder.Segments()...)
	// The mask-token gradient finishes accumulating in the decoder
	// input split, just before DecEmbed's backward — one completion
	// unit covering the contiguous [DecEmbed, MaskToken] flat range.
	segs = append(segs, append(m.DecEmbed.Params(), m.MaskToken))
	segs = append(segs, m.Encoder.Segments()...)
	return append(segs, m.Embed.Params())
}

// BackwardStepLayers is BackwardStep at layer granularity: onSegment
// (if non-nil) runs after each BackwardSegments unit's gradients
// become final, with the unit's index. BackwardStep delegates here
// with a nil callback, so overlapped and synchronous schedules run
// identical arithmetic.
func (m *Model) BackwardStepLayers(onSegment func(k int)) {
	m.backwardLayers(m.batch, onSegment)
}

// forward is a step's forward half on the model's recording arena,
// which it resets: every activation, every cache the backward re-reads
// and the loss gradient stay there until the next forward.
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

	// 1. Patchify and build normalized-pixel targets.
	patches := ctx.Take(batch * t * pd)
	nn.Patchify(patches, imgs, batch, enc.ImageSize, enc.ImageSize, enc.Channels, enc.PatchSize)
	target := ctx.Take(batch * t * pd)
	nn.NormalizePatches(target, patches, batch*t, pd, 1e-6)

	// 2. Embed all patches (with positional encodings), gather visible.
	emb := m.Embed.Apply(ctx, patches, batch)
	visible := ctx.Take(batch * keep * w)
	for b := 0; b < batch; b++ {
		tensor.GatherRows(visible[b*keep*w:], emb[b*t*w:], m.keepIdx[b], w)
	}

	// 3. Encode visible tokens.
	encOut := m.Encoder.Apply(ctx, visible, batch, keep)

	// 4. Project to decoder width.
	decVis := m.DecEmbed.Apply(ctx, encOut, batch*keep)

	// 5. Assemble full decoder sequence: mask tokens everywhere, then
	// scatter encoded visible tokens back to their grid positions, then
	// add decoder positional encodings.
	decIn := ctx.Take(batch * t * dw)
	mt := m.MaskToken.Value.Data
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

	// 6. Decode and predict pixels for every token.
	pred := m.Pred.Apply(ctx, m.Decoder.Apply(ctx, decIn, batch, t), batch*t)

	// 7. Loss on masked positions only.
	nMask := t - keep
	predMask := ctx.Take(batch * nMask * pd)
	tgtMask := ctx.Take(batch * nMask * pd)
	for b := 0; b < batch; b++ {
		tensor.GatherRows(predMask[b*nMask*pd:], pred[b*t*pd:], m.maskIdx[b], pd)
		tensor.GatherRows(tgtMask[b*nMask*pd:], target[b*t*pd:], m.maskIdx[b], pd)
	}
	m.dPred = ctx.Take(batch * nMask * pd)
	return nn.MSE(predMask, tgtMask, m.dPred)
}

func (m *Model) backward(batch int) {
	m.backwardLayers(batch, nil)
}

// backwardLayers is the single backward implementation, emitting a
// completion event per BackwardSegments unit (events are counted even
// with a nil callback so segment indices stay aligned). It takes every
// gradient that passes between units from the recording arena's top
// first, so the blocks' transients above them sit at one top that
// encoder and decoder blocks share, and rewinds to the forward's end.
func (m *Model) backwardLayers(batch int, onSegment func(k int)) {
	seg := 0
	emit := func() {
		if onSegment != nil {
			onSegment(seg)
		}
		seg++
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
	dFull := ctx.Take(batch * t * pd) // the masked-pixel gradient over every token
	dNormed := ctx.Take(batch * t * dw)
	dDec := ctx.Take(batch * t * dw)
	dVisible := ctx.Take(batch * keep * dw)
	dEnc := ctx.Take(batch * keep * w)
	dVis := ctx.Take(batch * keep * w)
	dEmbed := ctx.Take(batch * t * w)

	// Scatter masked-pixel gradient into the full prediction grid
	// (visible positions receive zero).
	clear(dFull)
	for b := 0; b < batch; b++ {
		tensor.ScatterRowsAdd(dFull[b*t*pd:], m.dPred[b*nMask*pd:], m.maskIdx[b], pd)
	}
	m.Pred.Backprop(dNormed, dFull)
	emit()
	m.Decoder.Backprop(ctx, dDec, dNormed, emit)

	// dDec now holds the gradient w.r.t. the decoder input sequence.
	// Split it: visible positions flow to the encoder path, all other
	// positions accumulate into the mask token.
	visMask := m.tokenMask()
	mtGrad := m.MaskToken.Grad.Data
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

	m.DecEmbed.Backprop(dEnc, dVisible)
	emit() // DecEmbed + MaskToken (accumulated in the split above)
	m.Encoder.Backprop(ctx, dVis, dEnc, emit)

	// Scatter visible-token gradients back into the full embedding grid
	// (masked positions receive zero) and finish with the patch embed.
	clear(dEmbed)
	for b := 0; b < batch; b++ {
		tensor.ScatterRowsAdd(dEmbed[b*t*w:], dVis[b*keep*w:], m.keepIdx[b], w)
	}
	m.Embed.Backprop(dEmbed)
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
