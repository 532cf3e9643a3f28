package mae

import "repro/internal/nn"

// Encode is the encoder pass over every patch (no masking): patchify,
// embed and encode the full grid, every activation in ctx. It returns
// the (batch·Tokens × width) token matrix, valid until ctx is reset. On
// a frozen arena (nn.NewInferCtx) it writes nothing in the model, so one
// Model serves concurrent workers that each bring their own — serving's
// batch (serve.Model.Fill) and the probes' Features and TokenFeatures
// run it that way. FeaturesWithGrad runs it on the model's recording
// arena.
func (m *Model) Encode(ctx *nn.Arena, imgs []float32, batch int) []float32 {
	enc := m.Cfg.Encoder
	t := enc.Tokens()
	patches := ctx.Take(batch * t * enc.PatchDim())
	nn.Patchify(patches, imgs, batch, enc.ImageSize, enc.ImageSize, enc.Channels, enc.PatchSize)
	return m.Encoder.Apply(ctx, m.Embed.Apply(ctx, patches, batch), batch, t)
}

// Features extracts frozen downstream features: Encode mean-pooled over
// tokens into one fresh (batch × encoder width) matrix — the
// representation linear probing trains on. It runs on a frozen arena
// the model owns, reset at every call, so it leaves a pending training
// step alone. Not safe for concurrent use.
func (m *Model) Features(imgs []float32, batch int) []float32 {
	pooled := make([]float32, batch*m.Cfg.Encoder.Width)
	m.PoolTokens(pooled, m.frozenTokens(imgs, batch), batch)
	return pooled
}

// TokenFeatures is Features without the pooling: a fresh (batch·Tokens
// × encoder width) matrix, one row per patch token in grid order — the
// representation dense tasks (segmentation via per-patch probing)
// train on. Not safe for concurrent use.
func (m *Model) TokenFeatures(imgs []float32, batch int) []float32 {
	return append([]float32(nil), m.frozenTokens(imgs, batch)...)
}

// frozenTokens runs Encode on the model's own frozen arena.
func (m *Model) frozenTokens(imgs []float32, batch int) []float32 {
	m.frozen.Reset()
	return m.Encode(m.frozen, imgs, batch)
}

// FeaturesWithGrad is Features on the model's recording arena, so
// BackwardFeatures can propagate a pooled feature gradient — the
// fine-tuning path, where the trunk is updated jointly with the task
// head. The pooled rows are bitwise Features'.
func (m *Model) FeaturesWithGrad(imgs []float32, batch int) []float32 {
	m.batch = batch
	m.ctx.Reset()
	pooled := make([]float32, batch*m.Cfg.Encoder.Width)
	m.PoolTokens(pooled, m.Encode(m.ctx, imgs, batch), batch)
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
	ctx := m.ctx
	mark := ctx.Mark()
	dTokens := ctx.Take(batch * t * w)
	dx := ctx.Take(batch * t * w)
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
	m.Encoder.Backprop(ctx, dx, dTokens, nil)
	m.Embed.Backprop(dx)
	ctx.Rewind(mark)
}

// PoolTokens overwrites the (batch × width) dst with the mean over
// tokens of a (batch·Tokens × width) token matrix, token-major and
// scaled per term. It is the one pooling loop: Features,
// FeaturesWithGrad and serving all pool through it, so their pooled
// rows agree bit for bit.
func (m *Model) PoolTokens(dst, h []float32, batch int) {
	t := m.Cfg.Encoder.Tokens()
	w := m.Cfg.Encoder.Width
	inv := float32(1) / float32(t)
	for b := 0; b < batch; b++ {
		out := dst[b*w : (b+1)*w]
		clear(out)
		for tok := 0; tok < t; tok++ {
			row := h[(b*t+tok)*w : (b*t+tok+1)*w]
			for j := range out {
				out[j] += float32(row[j] * inv)
			}
		}
	}
}
