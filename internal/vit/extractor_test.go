package vit_test

import (
	"math"
	"testing"

	"repro/internal/mae"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/vit"
)

// The live feature extractor over a vit.Config is mae.Model's encoder
// half (patch embedding, Encoder trunk, mean pooling) — the tests that
// tie this package's analytic Config to a running model construct that
// one, from outside the package because mae imports vit.

func TestModelParamCountMatchesAnalytic(t *testing.T) {
	// The live model must contain exactly the parameters the analytic
	// formula predicts — this ties the simulator's memory model to the
	// real implementation.
	cfg, err := vit.Analog("ViT-Base", 16, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	m := mae.New(mae.Default(cfg), rng.New(1))
	if got, want := int64(nn.CountParams(m.EncoderParams())), cfg.EncoderParams(); got != want {
		t.Fatalf("live params %d != analytic %d", got, want)
	}
}

func TestModelFeaturesShapeAndDeterminism(t *testing.T) {
	cfg := vit.Config{Name: "tiny", Width: 16, Depth: 2, MLP: 32, Heads: 2,
		PatchSize: 4, ImageSize: 8, Channels: 3}
	r := rng.New(3)
	m := mae.New(mae.Default(cfg), r)
	const batch = 2
	imgs := make([]float32, batch*8*8*3)
	r.FillNormal(imgs, 0, 1)
	f1 := append([]float32(nil), m.Features(imgs, batch)...)
	f2 := m.Features(imgs, batch)
	if len(f1) != batch*cfg.Width {
		t.Fatalf("feature len %d", len(f1))
	}
	for i := range f1 {
		if f1[i] != f2[i] {
			t.Fatal("Features not deterministic for fixed input")
		}
	}
}

func TestModelEndToEndGradient(t *testing.T) {
	// Full-pipeline gradient check: loss = Σ c·features; verify dW for a
	// sample of encoder-side parameters via central differences.
	cfg := vit.Config{Name: "tiny", Width: 8, Depth: 1, MLP: 16, Heads: 2,
		PatchSize: 4, ImageSize: 8, Channels: 2}
	r := rng.New(4)
	m := mae.New(mae.Default(cfg), r)
	const batch = 2
	imgs := make([]float32, batch*8*8*2)
	r.FillNormal(imgs, 0, 1)
	coef := make([]float32, batch*cfg.Width)
	r.FillNormal(coef, 0, 1)

	loss := func() float64 {
		f := m.Features(imgs, batch)
		var s float64
		for i := range coef {
			s += float64(coef[i]) * float64(f[i])
		}
		return s
	}
	ps := m.EncoderParams()
	nn.ZeroGrads(m.Params())
	_ = m.FeaturesWithGrad(imgs, batch)
	m.BackwardFeatures(coef)

	const h = 1e-2
	for _, p := range []*nn.Param{ps[0], ps[len(ps)/2], ps[len(ps)-1]} {
		for _, idx := range []int{0, p.NumEl() - 1} {
			orig := p.Value[idx]
			p.Value[idx] = orig + h
			lp := loss()
			p.Value[idx] = orig - h
			lm := loss()
			p.Value[idx] = orig
			num := (lp - lm) / (2 * h)
			got := float64(p.Grad[idx])
			scale := math.Max(1, math.Abs(num))
			if math.Abs(num-got)/scale > 3e-2 {
				t.Errorf("%s[%d]: numeric %v analytic %v", p.Name, idx, num, got)
			}
		}
	}
}
