package tensor

import (
	"math/rand"
	"testing"
)

// BenchmarkGELUFwd / BenchmarkGELUBwd stream the elementwise kernels
// over the decoder-MLP activation of the pretraining benchmark
// (4096 rows × 192 hidden) and report bytes moved per second — one read
// and one write per element forward, two reads and one write backward —
// for comparison against the host's STREAM triad.
const geluBenchN = 4096 * 192

func BenchmarkGELUFwd(b *testing.B) {
	r := rand.New(rand.NewSource(5))
	x := randSlice(r, geluBenchN, 1)
	y := make([]float32, geluBenchN)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GELU(y, x)
	}
	b.ReportMetric(2*4*geluBenchN*float64(b.N)/b.Elapsed().Seconds()/1e9, "GB/s")
}

func BenchmarkGELUBwd(b *testing.B) {
	r := rand.New(rand.NewSource(6))
	x := randSlice(r, geluBenchN, 1)
	dy := randSlice(r, geluBenchN, 1)
	dx := make([]float32, geluBenchN)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GELUBackward(dx, dy, x)
	}
	b.ReportMetric(3*4*geluBenchN*float64(b.N)/b.Elapsed().Seconds()/1e9, "GB/s")
}
