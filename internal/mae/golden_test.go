package mae

import (
	"encoding/binary"
	"hash/fnv"
	"runtime"
	"testing"

	"repro/internal/hw"
	"repro/internal/rng"
)

// fingerprint is FNV-64a over the little-endian bits of every slice.
func fingerprint(parts ...[]float32) uint64 {
	f := fnv.New64a()
	for _, p := range parts {
		binary.Write(f, binary.LittleEndian, p)
	}
	return f.Sum64()
}

// TestFrozenFeaturesGolden pins every bit the encoder-side extractors
// produce at one and four workers: pooled and per-token features, and
// the fine-tuning path's pooled output plus the encoder gradients its
// backward accumulates. Eight images put 72 token rows through every
// row-parallel loop, enough for the positional add to split.
func TestFrozenFeaturesGolden(t *testing.T) {
	if !hw.Detect().SIMD() {
		t.Skip("fingerprints are recorded on the avx2+fma kernels")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	const batch = 8
	imgs := randImgs(tinyCfg(), batch, 5)
	dPooled := make([]float32, batch*tinyCfg().Encoder.Width)
	rng.New(6).FillNormal(dPooled, 0, 1)
	cases := []struct {
		name string
		want uint64
		run  func(m *Model) uint64
	}{
		{"features", 0xda0bff78f861eefa, func(m *Model) uint64 { return fingerprint(m.Features(imgs, batch)) }},
		{"token-features", 0xdd36939d2923bc86, func(m *Model) uint64 { return fingerprint(m.TokenFeatures(imgs, batch)) }},
		{"features-with-grad", 0xb6af5df063f07452, func(m *Model) uint64 {
			parts := [][]float32{m.FeaturesWithGrad(imgs, batch)}
			m.BackwardFeatures(dPooled)
			for _, p := range m.EncoderParams() {
				parts = append(parts, p.Grad.Data)
			}
			return fingerprint(parts...)
		}},
	}
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for _, c := range cases {
			if got := c.run(New(tinyCfg(), rng.New(3))); got != c.want {
				t.Errorf("GOMAXPROCS=%d %s: fingerprint %#x, want %#x", procs, c.name, got, c.want)
			}
		}
	}
}
