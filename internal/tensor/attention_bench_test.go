package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// attnCoreFlops is the multiply-add work of the attention core
// (S = Q·Kᵀ and O = P·V) for one head; the backward adds the four
// gradient GEMMs for 12·t²·d total. Both variants are credited the
// same nominal count, so the reported GFLOP/s ratio is exactly the
// speedup (the fused path's tile recompute is not billed).
func attnCoreFlops(t, d int) float64 { return 4 * float64(t) * float64(t) * float64(d) }

// BenchmarkFlashAttnGEMM compares the fused tiled kernels against the
// materialized reference (blocked GEMM + scale-folded softmax ops) on
// single-head attention at ViT sequence lengths: T=197 is ViT-Base at
// 224²/16² (+CLS), T=784 is the 224²/8² high-resolution grid the
// paper's Swin comparison scales toward. The fused path's advantage
// is fewer memory passes — it never writes the (T×T) scores to memory
// — so it grows with T. The last three shapes are the heads the
// end-to-end benchmark (bench/) runs: the MAE decoder (T=256, d=6),
// the masked encoder (T=64, d=12) and the serving encoder (T=256,
// d=16).
func BenchmarkFlashAttnGEMM(b *testing.B) {
	shapes := []struct{ t, d int }{
		{197, 64},
		{784, 64},
		{256, 6},
		{64, 12},
		{256, 16},
	}
	for _, s := range shapes {
		t, d := s.t, s.d
		r := rand.New(rand.NewSource(7))
		q := randSlice(r, t*d, 1)
		k := randSlice(r, t*d, 1)
		v := randSlice(r, t*d, 1)
		do := randSlice(r, t*d, 1)
		o := make([]float32, t*d)
		stats := make([]float32, 2*t)
		scale := float32(1 / math.Sqrt(float64(d)))
		name := fmt.Sprintf("T%dD%d", t, d)

		b.Run("Fused/Fwd/"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				FlashAttnFwd(o, d, q, k, v, t, d, scale, stats)
			}
			b.ReportMetric(attnCoreFlops(t, d)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
		b.Run("Ref/Fwd/"+name, func(b *testing.B) {
			p := make([]float32, t*t)
			for i := 0; i < b.N; i++ {
				MatMulTB(p, q, k, t, d, t, false)
				SoftmaxScaled(p, p, t, t, scale)
				MatMul(o, p, v, t, t, d, false)
			}
			b.ReportMetric(attnCoreFlops(t, d)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})

		dq := make([]float32, t*d)
		dk := make([]float32, t*d)
		dv := make([]float32, t*d)
		b.Run("Fused/FwdBwd/"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				FlashAttnFwd(o, d, q, k, v, t, d, scale, stats)
				FlashAttnBwd(dq, dk, dv, d, do, o, d, q, k, v, t, d, scale, stats)
			}
			b.ReportMetric(3*attnCoreFlops(t, d)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
		b.Run("Ref/FwdBwd/"+name, func(b *testing.B) {
			p := make([]float32, t*t)
			dp := make([]float32, t*t)
			ds := make([]float32, t*t)
			for i := 0; i < b.N; i++ {
				MatMulTB(p, q, k, t, d, t, false)
				SoftmaxScaled(p, p, t, t, scale)
				MatMul(o, p, v, t, t, d, false)
				MatMulTA(dv, p, do, t, t, d, false)
				MatMulTB(dp, do, v, t, d, t, false)
				SoftmaxBackwardScaled(ds, p, dp, t, t, scale)
				MatMul(dq, ds, k, t, t, d, false)
				MatMulTA(dk, ds, q, t, t, d, false)
			}
			b.ReportMetric(3*attnCoreFlops(t, d)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
	}
}
