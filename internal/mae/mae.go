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
	Encoder   *vit.Encoder
	DecEmbed  *nn.Linear
	MaskToken *nn.Param
	DecBlocks []*nn.Block
	DecNorm   *nn.LayerNorm
	Pred      *nn.Linear
	DecPos    []float32 // fixed sin-cos over the full grid, decoder width

	maskRNG *rng.RNG
	// arena holds Features' and TokenFeatures' activations, apart from
	// the layers' backward caches.
	arena *nn.InferCtx

	// per-step state
	batch    int
	keepIdx  [][]int // visible patch indices per image (sorted)
	maskIdx  [][]int // masked patch indices per image
	patches  []float32
	target   []float32
	visible  []float32
	decIn    []float32
	predMask []float32
	tgtMask  []float32
	dPred    []float32
	dDecIn   []float32
	dVisible []float32
	dEmbed   []float32
}

// New constructs the model with weights drawn from r and an independent
// masking stream split from r.
func New(cfg Config, r *rng.RNG) *Model {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	g := cfg.Encoder.Grid()
	m := &Model{
		Cfg:       cfg,
		Embed:     nn.NewPatchEmbed("mae.embed", cfg.Encoder.PatchDim(), cfg.Encoder.Width, g, g, r),
		Encoder:   vit.NewEncoder(cfg.Encoder, r),
		DecEmbed:  nn.NewLinear("mae.dec_embed", cfg.Encoder.Width, cfg.DecoderWidth, r),
		MaskToken: nn.NewParam("mae.mask_token", cfg.DecoderWidth),
		DecNorm:   nn.NewLayerNorm("mae.dec_norm", cfg.DecoderWidth),
		Pred:      nn.NewLinear("mae.pred", cfg.DecoderWidth, cfg.Encoder.PatchDim(), r),
		DecPos:    nn.SinCos2D(cfg.DecoderWidth, g, g),
		maskRNG:   r.Split(),
		arena:     nn.NewInferCtx(),
	}
	m.MaskToken.NoWeightDecay = true
	m.MaskToken.Value.RandnInit(r, 0.02)
	for i := 0; i < cfg.DecoderDepth; i++ {
		m.DecBlocks = append(m.DecBlocks,
			nn.NewBlock(fmt.Sprintf("mae.dec.block%d", i), cfg.DecoderWidth, 4*cfg.DecoderWidth, cfg.DecoderHeads, r))
	}
	return m
}

// Params returns every trainable parameter.
func (m *Model) Params() []*nn.Param {
	ps := m.Embed.Params()
	ps = append(ps, m.Encoder.Params()...)
	ps = append(ps, m.DecEmbed.Params()...)
	ps = append(ps, m.MaskToken)
	for _, b := range m.DecBlocks {
		ps = append(ps, b.Params()...)
	}
	ps = append(ps, m.DecNorm.Params()...)
	ps = append(ps, m.Pred.Params()...)
	return ps
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
	m.maskIdx = m.maskIdx[:0]
	for _, kv := range keep {
		in := make([]bool, t)
		for _, k := range kv {
			in[k] = true
		}
		var masked []int
		for i := 0; i < t; i++ {
			if !in[i] {
				masked = append(masked, i)
			}
		}
		m.maskIdx = append(m.maskIdx, masked)
	}
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
// reconstruction loss with a caller-supplied mask, activations cached —
// so a distributed executor can reshard parameters between the halves
// (FULL_SHARD drops non-owned parameter shards after forward and
// re-gathers them for backward). Follow with BackwardStep to accumulate
// gradients.
func (m *Model) ForwardWithMask(imgs []float32, batch int, keep [][]int) float64 {
	m.SetMask(keep)
	return m.forward(imgs, batch)
}

// BackwardStep runs the backward half for the most recent
// ForwardWithMask, accumulating parameter gradients from the cached
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
	segs := [][]*nn.Param{m.Pred.Params(), m.DecNorm.Params()}
	for i := len(m.DecBlocks) - 1; i >= 0; i-- {
		segs = append(segs, m.DecBlocks[i].Params())
	}
	// The mask-token gradient finishes accumulating in the decoder
	// input split, just before DecEmbed's backward — one completion
	// unit covering the contiguous [DecEmbed, MaskToken] flat range.
	proj := append([]*nn.Param{}, m.DecEmbed.Params()...)
	segs = append(segs, append(proj, m.MaskToken))
	segs = append(segs, m.Encoder.Norm.Params())
	for i := len(m.Encoder.Blocks) - 1; i >= 0; i-- {
		segs = append(segs, m.Encoder.Blocks[i].Params())
	}
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

func (m *Model) forward(imgs []float32, batch int) float64 {
	cfg := m.Cfg
	enc := cfg.Encoder
	t := enc.Tokens()
	pd := enc.PatchDim()
	w := enc.Width
	dw := cfg.DecoderWidth
	keep := len(m.keepIdx[0])
	m.batch = batch

	// 1. Patchify and build normalized-pixel targets.
	m.patches = growF(m.patches, batch*t*pd)
	nn.Patchify(m.patches, imgs, batch, enc.ImageSize, enc.ImageSize, enc.Channels, enc.PatchSize)
	m.target = growF(m.target, batch*t*pd)
	nn.NormalizePatches(m.target, m.patches, batch*t, pd, 1e-6)

	// 2. Embed all patches (with positional encodings), gather visible.
	emb := m.Embed.Forward(m.patches, batch)
	m.visible = growF(m.visible, batch*keep*w)
	for b := 0; b < batch; b++ {
		tensor.GatherRows(m.visible[b*keep*w:], emb[b*t*w:], m.keepIdx[b], w)
	}

	// 3. Encode visible tokens.
	encOut := m.Encoder.Forward(m.visible, batch, keep)

	// 4. Project to decoder width.
	decVis := m.DecEmbed.Forward(encOut, batch*keep)

	// 5. Assemble full decoder sequence: mask tokens everywhere, then
	// scatter encoded visible tokens back to their grid positions, then
	// add decoder positional encodings.
	m.decIn = growF(m.decIn, batch*t*dw)
	mt := m.MaskToken.Value.Data
	for row := 0; row < batch*t; row++ {
		copy(m.decIn[row*dw:(row+1)*dw], mt)
	}
	for b := 0; b < batch; b++ {
		for i, g := range m.keepIdx[b] {
			copy(m.decIn[(b*t+g)*dw:(b*t+g+1)*dw], decVis[(b*keep+i)*dw:(b*keep+i+1)*dw])
		}
	}
	for row := 0; row < batch*t; row++ {
		pos := m.DecPos[(row%t)*dw : (row%t+1)*dw]
		seg := m.decIn[row*dw : (row+1)*dw]
		for j := range seg {
			seg[j] += pos[j]
		}
	}

	// 6. Decode and predict pixels for every token.
	h := m.decIn
	for _, b := range m.DecBlocks {
		h = b.Forward(h, batch, t)
	}
	h = m.DecNorm.Forward(h, batch*t)
	pred := m.Pred.Forward(h, batch*t)

	// 7. Loss on masked positions only.
	nMask := t - keep
	m.predMask = growF(m.predMask, batch*nMask*pd)
	m.tgtMask = growF(m.tgtMask, batch*nMask*pd)
	for b := 0; b < batch; b++ {
		tensor.GatherRows(m.predMask[b*nMask*pd:], pred[b*t*pd:], m.maskIdx[b], pd)
		tensor.GatherRows(m.tgtMask[b*nMask*pd:], m.target[b*t*pd:], m.maskIdx[b], pd)
	}
	m.dPred = growF(m.dPred, batch*nMask*pd)
	return nn.MSE(m.predMask, m.tgtMask, m.dPred)
}

func (m *Model) backward(batch int) {
	m.backwardLayers(batch, nil)
}

// backwardLayers is the single backward implementation, emitting a
// completion event per BackwardSegments unit (events are counted even
// with a nil callback so segment indices stay aligned).
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

	// Scatter masked-pixel gradient into the full prediction grid.
	full := growF(nil, batch*t*pd)
	for b := 0; b < batch; b++ {
		tensor.ScatterRowsAdd(full[b*t*pd:], m.dPred[b*nMask*pd:], m.maskIdx[b], pd)
	}

	d := m.Pred.Backward(full)
	emit()
	d = m.DecNorm.Backward(d)
	emit()
	for i := len(m.DecBlocks) - 1; i >= 0; i-- {
		d = m.DecBlocks[i].Backward(d)
		emit()
	}

	// d now holds the gradient w.r.t. the decoder input sequence.
	// Split it: visible positions flow to the encoder path, all other
	// positions accumulate into the mask token.
	m.dVisible = growF(m.dVisible, batch*keep*dw)
	visMask := make([]bool, t)
	mtGrad := m.MaskToken.Grad.Data
	for b := 0; b < batch; b++ {
		for i := range visMask {
			visMask[i] = false
		}
		for i, g := range m.keepIdx[b] {
			visMask[g] = true
			copy(m.dVisible[(b*keep+i)*dw:(b*keep+i+1)*dw], d[(b*t+g)*dw:(b*t+g+1)*dw])
		}
		for g := 0; g < t; g++ {
			if !visMask[g] {
				seg := d[(b*t+g)*dw : (b*t+g+1)*dw]
				for j := range mtGrad {
					mtGrad[j] += seg[j]
				}
			}
		}
	}

	dEnc := m.DecEmbed.Backward(m.dVisible)
	emit() // DecEmbed + MaskToken (accumulated in the split above)
	dVis := m.Encoder.BackwardLayers(dEnc, emit)

	// Scatter visible-token gradients back into the full embedding grid
	// (masked positions receive zero) and finish with the patch embed.
	m.dEmbed = growF(m.dEmbed, batch*t*w)
	for i := range m.dEmbed {
		m.dEmbed[i] = 0
	}
	for b := 0; b < batch; b++ {
		tensor.ScatterRowsAdd(m.dEmbed[b*t*w:], dVis[b*keep*w:], m.keepIdx[b], w)
	}
	m.Embed.Backward(m.dEmbed)
	emit()
}

// FeaturesWithGrad is Features through the layers' training Forward,
// which keeps the backward caches alive so BackwardFeatures can
// propagate a pooled feature gradient — the fine-tuning path, where the
// trunk is updated jointly with the task head. It is the only feature
// extractor that caches; the pooled rows are bitwise Features'.
func (m *Model) FeaturesWithGrad(imgs []float32, batch int) []float32 {
	enc := m.Cfg.Encoder
	t := enc.Tokens()
	m.batch = batch
	m.patches = growF(m.patches, batch*t*enc.PatchDim())
	nn.Patchify(m.patches, imgs, batch, enc.ImageSize, enc.ImageSize, enc.Channels, enc.PatchSize)
	h := m.Encoder.Forward(m.Embed.Forward(m.patches, batch), batch, t)
	pooled := make([]float32, batch*enc.Width)
	m.PoolTokens(pooled, h, batch)
	return pooled
}

// BackwardFeatures propagates a (batch × width) mean-pooled feature
// gradient back through the encoder and the patch embedding,
// accumulating parameter gradients. Must follow FeaturesWithGrad.
func (m *Model) BackwardFeatures(dPooled []float32) {
	enc := m.Cfg.Encoder
	t := enc.Tokens()
	w := enc.Width
	batch := m.batch
	dTokens := growF(nil, batch*t*w)
	inv := float32(1) / float32(t)
	for b := 0; b < batch; b++ {
		src := dPooled[b*w : (b+1)*w]
		for tok := 0; tok < t; tok++ {
			dst := dTokens[(b*t+tok)*w : (b*t+tok+1)*w]
			for j := range dst {
				dst[j] = src[j] * inv
			}
		}
	}
	d := m.Encoder.Backward(dTokens)
	m.Embed.Backward(d)
}

func growF(buf []float32, n int) []float32 {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]float32, n)
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
