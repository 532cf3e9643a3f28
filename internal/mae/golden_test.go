package mae

import (
	"runtime"
	"testing"

	"repro/internal/golden"
	"repro/internal/rng"
	"repro/internal/vit"
)

// TestFrozenFeaturesGolden pins every bit the encoder-side extractors
// produce at one and four workers: pooled and per-token features, and
// the fine-tuning path's pooled output plus the encoder gradients its
// backward accumulates. Eight images put 72 token rows through every
// row-parallel loop, enough for the positional add to split.
func TestFrozenFeaturesGolden(t *testing.T) {
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
		{"features", 0xda0bff78f861eefa, func(m *Model) uint64 { return golden.Fingerprint(m.Features(imgs, batch)) }},
		{"token-features", 0xdd36939d2923bc86, func(m *Model) uint64 { return golden.Fingerprint(m.TokenFeatures(imgs, batch)) }},
		{"features-with-grad", 0xb6af5df063f07452, func(m *Model) uint64 {
			parts := []any{m.FeaturesWithGrad(imgs, batch)}
			m.BackwardFeatures(dPooled)
			for _, p := range m.EncoderParams() {
				parts = append(parts, p.Grad.Data)
			}
			return golden.Fingerprint(parts...)
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

// TestStepGradientsGolden pins every bit of two consecutive training
// steps — both losses and every accumulated gradient — at one and four
// workers, on the tiny model and on the pretrain_compute analog's
// widths (ViT-3B: 8 encoder heads of 12, 8 decoder heads of 6) at 16
// tokens. The second step reuses every arena slot the first took, so a
// pass that read a stale slot instead of overwriting it shows here.
func TestStepGradientsGolden(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	enc, err := vit.Analog("ViT-3B", 16, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	const batch = 4
	for _, c := range []struct {
		name string
		cfg  Config
		want uint64
	}{
		{"tiny", tinyCfg(), 0xd98c472178fe0d6a},
		{"vit-3b-analog", Default(enc), 0x365d7106edfa1c21},
	} {
		imgs := randImgs(c.cfg, batch, 17)
		for _, procs := range []int{1, 4} {
			runtime.GOMAXPROCS(procs)
			m := New(c.cfg, rng.New(2))
			var losses []float32
			for step := 0; step < 2; step++ {
				losses = append(losses, float32(m.ForwardWithMask(imgs, batch, m.DrawMasks(batch))))
				m.BackwardStep()
			}
			parts := []any{losses}
			for _, p := range m.Params() {
				parts = append(parts, p.Grad.Data)
			}
			if got := golden.Fingerprint(parts...); got != c.want {
				t.Errorf("GOMAXPROCS=%d %s: fingerprint %#x, want %#x", procs, c.name, got, c.want)
			}
		}
	}
}
