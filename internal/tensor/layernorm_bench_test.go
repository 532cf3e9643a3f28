package tensor

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkLayerNormFwd / BenchmarkLayerNormBwd stream the LayerNorm
// kernels over the two activations the pretraining benchmark
// normalizes (decoder 4096×48, encoder 1024×96) and report bytes moved
// per second for comparison against the host's STREAM triad: forward
// reads x and writes x̂ and y (3 floats per element); backward is the
// dγ/dβ reduction plus dx — dy and x̂ read twice, dx written (5 floats
// per element).
var layerNormBenchShapes = []struct{ rows, d int }{{4096, 48}, {1024, 96}}

func BenchmarkLayerNormFwd(b *testing.B) {
	for _, s := range layerNormBenchShapes {
		b.Run(fmt.Sprintf("R%dD%d", s.rows, s.d), func(b *testing.B) {
			r := rand.New(rand.NewSource(5))
			n := s.rows * s.d
			x, g, beta := randSlice(r, n, 1), randSlice(r, s.d, 1), randSlice(r, s.d, 1)
			y, xhat, invStd := make([]float32, n), make([]float32, n), make([]float32, s.rows)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				LayerNorm(y, xhat, invStd, x, g, beta, s.rows, s.d, 1e-6)
			}
			b.ReportMetric(3*4*float64(n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GB/s")
		})
	}
}

func BenchmarkLayerNormBwd(b *testing.B) {
	for _, s := range layerNormBenchShapes {
		b.Run(fmt.Sprintf("R%dD%d", s.rows, s.d), func(b *testing.B) {
			r := rand.New(rand.NewSource(6))
			n := s.rows * s.d
			x, g, beta, dy := randSlice(r, n, 1), randSlice(r, s.d, 1), randSlice(r, s.d, 1), randSlice(r, n, 1)
			y, xhat, invStd, dx := make([]float32, n), make([]float32, n), make([]float32, s.rows), make([]float32, n)
			dg, db := make([]float32, s.d), make([]float32, s.d)
			LayerNorm(y, xhat, invStd, x, g, beta, s.rows, s.d, 1e-6)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				LayerNormParamGrads(dg, db, dy, xhat, s.rows, s.d)
				LayerNormBackward(dx, dy, xhat, invStd, g, s.rows, s.d)
			}
			b.ReportMetric(5*4*float64(n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GB/s")
		})
	}
}
