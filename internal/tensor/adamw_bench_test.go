package tensor

import (
	"math/rand"
	"testing"
)

// BenchmarkAdamW / BenchmarkAdamWRounded / BenchmarkAdamWImage /
// BenchmarkSumSq stream the optimizer-phase kernels over the 2-rank
// benchmark's flat parameter space (≈ 550k elements) and report bytes
// moved per second — four reads and three writes per element for the
// update (plus 4 bytes written for the bf16 working copy, and 2 more
// for its wire image, the bf16 sharded training step's form), one read
// for Σx² — for comparison against the host's STREAM triad.
const adamwBenchN = 550_000

func benchAdamW(b *testing.B, withRounded, withImage bool) {
	r := rand.New(rand.NewSource(7))
	s := adamwState{randSlice(r, adamwBenchN, 1), randSlice(r, adamwBenchN, 1e-3),
		make([]float32, adamwBenchN), make([]float32, adamwBenchN)}
	var rounded []float32
	bytes := 7 * 4
	if withRounded {
		rounded = make([]float32, adamwBenchN)
		bytes += 4
	}
	var image []uint16
	if withImage {
		image = make([]uint16, adamwBenchN)
		bytes += 2
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := NewAdamWScalars(1e-4, 0.9, 0.95, 1e-8, i+1)
		AdamW(s.w, rounded, image, s.g, s.m, s.v, &k)
	}
	b.ReportMetric(float64(bytes)*adamwBenchN*float64(b.N)/b.Elapsed().Seconds()/1e9, "GB/s")
}

func BenchmarkAdamW(b *testing.B)        { benchAdamW(b, false, false) }
func BenchmarkAdamWRounded(b *testing.B) { benchAdamW(b, true, false) }
func BenchmarkAdamWImage(b *testing.B)   { benchAdamW(b, true, true) }

var sumSqSink float64

func BenchmarkSumSq(b *testing.B) {
	x := randSlice(rand.New(rand.NewSource(8)), adamwBenchN, 1e-3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var s SumSq
		s.Add(x, 0)
		sumSqSink = s.Sum()
	}
	b.ReportMetric(4*adamwBenchN*float64(b.N)/b.Elapsed().Seconds()/1e9, "GB/s")
}
