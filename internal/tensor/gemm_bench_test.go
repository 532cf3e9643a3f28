package tensor

import (
	"fmt"
	"testing"

	"repro/internal/rng"
)

// benchGEMM times one kernel shape and reports achieved GFLOP/s
// (2·m·k·n FLOPs per call).
func benchGEMM(b *testing.B, m, k, n int, call func(c, a, bb []float32)) {
	r := rng.New(1)
	a := randMat(r, m*k)
	bb := randMat(r, k*n)
	c := make([]float32, m*n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		call(c, a, bb)
	}
	b.StopTimer()
	flops := 2 * float64(m) * float64(k) * float64(n) * float64(b.N)
	b.ReportMetric(flops/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}

// BenchmarkGEMM measures the blocked, packed kernels across the paper's
// hot shapes.
func BenchmarkGEMM(b *testing.B) {
	for _, s := range []int{128, 256, 512, 1024} {
		b.Run(fmt.Sprintf("NN%d", s), func(b *testing.B) {
			benchGEMM(b, s, s, s, func(c, a, bb []float32) {
				MatMul(c, a, bb, s, s, s, false)
			})
		})
	}
	const s = 256
	b.Run("TB256", func(b *testing.B) {
		benchGEMM(b, s, s, s, func(c, a, bb []float32) {
			MatMulTB(c, a, bb, s, s, s, false)
		})
	})
	b.Run("TA256", func(b *testing.B) {
		benchGEMM(b, s, s, s, func(c, a, bb []float32) {
			MatMulTA(c, a, bb, s, s, s, false)
		})
	})
	// ViT-ish rectangular shapes: token×width GEMMs from the encoder.
	b.Run("NN196x768x768", func(b *testing.B) {
		benchGEMM(b, 196, 768, 768, func(c, a, bb []float32) {
			MatMul(c, a, bb, 196, 768, 768, false)
		})
	})
	b.Run("NN196x768x3072", func(b *testing.B) {
		benchGEMM(b, 196, 768, 3072, func(c, a, bb []float32) {
			MatMul(c, a, bb, 196, 768, 3072, false)
		})
	})
	// The shapes the end-to-end benchmark's analog models run (tokens ×
	// width ≤ 288): the two biased forward GEMMs, the weight gradient
	// dW = xᵀ·dy — few row panels against thousands of tokens, the side
	// of bInPlace that reads B where it lies — and the input gradient
	// dx = dy·Wᵀ; then a wide, heavily reused B on the packed side.
	// The small-m GEMMs are the 2-rank workloads' per-rank shapes (8
	// encoder or 32 decoder rows per rank): the forward, the weight
	// gradient over those rows, and the input gradient, which tbSwapped
	// runs as Cᵀ = B·Aᵀ up to TB48x288x96 and packs B again from
	// TB64x288x96 on.
	bias := make([]float32, 288)
	nnBias := func(c, a, bb []float32, m, k, n int) { MatMulBias(c, a, bb, bias, m, k, n, false) }
	ta := func(c, a, bb []float32, m, k, n int) { MatMulTA(c, a, bb, m, k, n, true) }
	tb := func(c, a, bb []float32, m, k, n int) { MatMulTB(c, a, bb, m, k, n, false) }
	for _, sh := range []struct {
		name    string
		m, k, n int
		call    func(c, a, bb []float32, m, k, n int)
	}{
		{"NNBias", 4096, 96, 288, nnBias},
		{"NNBias", 2048, 64, 192, nnBias},
		{"NNBias", 8, 96, 288, nnBias},
		{"NNBias", 32, 48, 192, nnBias},
		{"TA", 96, 4096, 288, ta},
		{"TA", 96, 8, 288, ta},
		{"TA", 48, 32, 192, ta},
		{"TB", 4096, 288, 96, tb},
		{"TB", 8, 288, 96, tb},
		{"TB", 8, 96, 288, tb},
		{"TB", 32, 144, 48, tb},
		{"TB", 32, 48, 192, tb},
		{"TB", 48, 288, 96, tb},
		{"TB", 64, 288, 96, tb},
		{"TB", 128, 288, 96, tb},
		{"NN", 2048, 768, 3072, func(c, a, bb []float32, m, k, n int) { MatMul(c, a, bb, m, k, n, false) }},
	} {
		b.Run(fmt.Sprintf("%s%dx%dx%d", sh.name, sh.m, sh.k, sh.n), func(b *testing.B) {
			benchGEMM(b, sh.m, sh.k, sh.n, func(c, a, bb []float32) { sh.call(c, a, bb, sh.m, sh.k, sh.n) })
		})
	}
}

// BenchmarkGEMMNaiveBaseline is the unblocked triple loop at 256³, the
// baseline the blocked kernels are measured against.
func BenchmarkGEMMNaiveBaseline(b *testing.B) {
	const s = 256
	benchGEMM(b, s, s, s, func(c, a, bb []float32) {
		MatMulNaive(c, a, bb, s, s, s)
	})
}
