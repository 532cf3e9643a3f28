package mae

import "repro/internal/nn"

// InferTokenFeatures is the frozen encoder pass: all patches embedded
// (no masking), encoded over the full grid, with every activation in
// the caller's InferCtx instead of the layers' backward caches. The
// returned (batch·Tokens × width) matrix is ctx-owned and valid until
// ctx.Reset. Because nothing in the model is written, one Model serves
// concurrent workers that each bring their own ctx. The probes reach
// the encoder through it (Features, TokenFeatures) and so does serving
// (serve.Model.Fill); FeaturesWithGrad is the only extractor that runs
// the caching Forward instead.
func (m *Model) InferTokenFeatures(ctx *nn.InferCtx, imgs []float32, batch int) []float32 {
	enc := m.Cfg.Encoder
	t := enc.Tokens()
	pd := enc.PatchDim()
	patches := ctx.Take(batch * t * pd)
	nn.Patchify(patches, imgs, batch, enc.ImageSize, enc.ImageSize, enc.Channels, enc.PatchSize)
	h := m.Embed.Infer(ctx, patches, batch)
	return m.Encoder.Infer(ctx, h, batch, t)
}

// Features extracts frozen downstream features: the frozen encoder pass
// mean-pooled over tokens into one fresh (batch × encoder width)
// matrix — the representation linear probing trains on. It runs on an
// arena the model owns, reset at every call, so it leaves a pending
// training step's caches alone. Not safe for concurrent use.
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

// frozenTokens runs InferTokenFeatures on the model's own arena.
func (m *Model) frozenTokens(imgs []float32, batch int) []float32 {
	m.arena.Reset()
	return m.InferTokenFeatures(m.arena, imgs, batch)
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
