package nn

import (
	"fmt"
	"testing"

	"repro/internal/rng"
)

// attnFwdFlops estimates the multiply-add work of one attention
// forward: QKV projection, S = Q·Kᵀ, O = P·V, output projection.
func attnFwdFlops(batch, tokens, width, heads int) float64 {
	bt := float64(batch * tokens)
	w := float64(width)
	d := w / float64(heads)
	bh := float64(batch * heads)
	t := float64(tokens)
	return 2*bt*w*3*w + // QKV projection
		4*bh*t*t*d + // S = Q·Kᵀ and O = P·V
		2*bt*w*w // output projection
}

// BenchmarkAttentionGEMM exercises the attention hot path at encoder
// shapes (ViT-Base patches and a laptop-scale analog) and reports
// achieved GFLOP/s; the backward benches include the five backward
// GEMMs (≈2× the forward work).
func BenchmarkAttentionGEMM(b *testing.B) {
	shapes := []struct{ batch, tokens, width, heads int }{
		{1, 197, 768, 12}, // ViT-Base, 224² image, 16² patches + CLS
		{4, 64, 256, 8},   // laptop-scale analog
	}
	for _, s := range shapes {
		name := fmt.Sprintf("B%dT%dW%dH%d", s.batch, s.tokens, s.width, s.heads)
		r := rng.New(3)
		x := make([]float32, s.batch*s.tokens*s.width)
		r.FillNormal(x, 0, 1)

		b.Run("Forward/"+name, func(b *testing.B) {
			att := NewMultiHeadAttention("bench", s.width, s.heads, rng.New(1))
			ctx := NewInferCtx()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ctx.Reset()
				att.Apply(ctx, x, s.batch, s.tokens)
			}
			b.StopTimer()
			fl := attnFwdFlops(s.batch, s.tokens, s.width, s.heads) * float64(b.N)
			b.ReportMetric(fl/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})

		b.Run("FwdBwd/"+name, func(b *testing.B) {
			att := NewMultiHeadAttention("bench", s.width, s.heads, rng.New(1))
			dy := make([]float32, s.batch*s.tokens*s.width)
			rng.New(4).FillNormal(dy, 0, 1)
			dx := make([]float32, len(dy))
			ctx := NewTrainCtx()
			att.Apply(ctx, x, s.batch, s.tokens)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ctx.Reset()
				att.Apply(ctx, x, s.batch, s.tokens)
				att.Backprop(ctx, dx, dy)
			}
			b.StopTimer()
			fl := 3 * attnFwdFlops(s.batch, s.tokens, s.width, s.heads) * float64(b.N)
			b.ReportMetric(fl/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
	}
}
