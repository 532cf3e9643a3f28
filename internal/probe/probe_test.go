package probe

import (
	"math"
	"testing"

	"repro/internal/geodata"
	"repro/internal/mae"
	"repro/internal/rng"
	"repro/internal/vit"
)

// identityFeatures is a trivial extractor: mean pixel per channel plus
// raw downsampled pixels — enough signal for a linear head to beat
// chance on the synthetic scenes.
func pixelFeatures(imgLen, featDim int) FeatureFunc {
	return func(imgs []float32, batch int) []float32 {
		out := make([]float32, batch*featDim)
		for b := 0; b < batch; b++ {
			img := imgs[b*imgLen : (b+1)*imgLen]
			stride := imgLen / featDim
			if stride < 1 {
				stride = 1
			}
			for j := 0; j < featDim; j++ {
				out[b*featDim+j] = img[(j*stride)%imgLen]
			}
		}
		return out
	}
}

func probeDataset(classes, train, test int) *geodata.Dataset {
	gen := geodata.NewSceneGen(classes, 12, 3, 21)
	return &geodata.Dataset{Name: "probe-test", Gen: gen, TrainCount: train, TestCount: test}
}

func TestRunValidation(t *testing.T) {
	ds := probeDataset(3, 9, 6)
	f := pixelFeatures(ds.Gen.ImageLen(), 8)
	if _, _, err := FitHead(Config{BatchSize: 0, Epochs: 1}, f, 8, ds); err == nil {
		t.Fatal("batch size 0 accepted")
	}
	if _, _, err := FitHead(Config{BatchSize: 4, Epochs: 0}, f, 8, ds); err == nil {
		t.Fatal("epochs 0 accepted")
	}
}

// TestMalformedGeometryFails pins the named error for every feature or
// patch geometry that does not match what the extractor returns.
func TestMalformedGeometryFails(t *testing.T) {
	gen := geodata.NewSceneGen(3, 16, 3, 1)
	ds := &geodata.Dataset{Name: "geom", Gen: gen, TrainCount: 6, TestCount: 3}
	width16 := pixelFeatures(gen.ImageLen(), 16)
	model := tinyMAEModel(1) // width 16, patch 4
	cfg := Config{BatchSize: 3, Epochs: 1, BaseLR: 0.1, Seed: 1}
	classify := func(dim int) error { _, _, err := FitHead(cfg, width16, dim, ds); return err }
	segment := func(patch int) error { _, _, err := FitSegHead(cfg, model.TokenFeatures, 16, ds, patch); return err }
	for _, c := range []struct {
		name string
		err  error
		want string
	}{
		{"featDim below the width", classify(8), "probe: extractor returned 48 values for 3 images, want 3 rows × 8"},
		{"featDim above the width", classify(32), "probe: extractor returned 48 values for 3 images, want 3 rows × 32"},
		{"featDim 0", classify(0), "probe: non-positive feature dimension 0"},
		{"patch 0", segment(0), "probe: non-positive patch size 0"},
		{"patch 8 on a patch-4 encoder", segment(8), "probe: extractor returned 768 values for 3 images, want 12 rows × 16"},
	} {
		if c.err == nil || c.err.Error() != c.want {
			t.Errorf("%s: err = %v, want %q", c.name, c.err, c.want)
		}
	}
}

func TestProbeBeatsChanceOnPixelFeatures(t *testing.T) {
	const classes = 3
	ds := probeDataset(classes, 60, 30)
	featDim := 16
	f := pixelFeatures(ds.Gen.ImageLen(), featDim)
	cfg := Config{BatchSize: 12, Epochs: 30, BaseLR: 0.1, Seed: 1}
	_, res, err := FitHead(cfg, f, featDim, ds)
	if err != nil {
		t.Fatal(err)
	}
	chance := 1.0 / classes
	if res.FinalTop1 <= chance {
		t.Fatalf("probe top1 %.3f no better than chance %.3f", res.FinalTop1, chance)
	}
	if res.FinalTop5 < res.FinalTop1 {
		t.Fatalf("top5 %.3f < top1 %.3f", res.FinalTop5, res.FinalTop1)
	}
	if len(res.Top1Curve.Y) != cfg.Epochs {
		t.Fatalf("curve has %d points", len(res.Top1Curve.Y))
	}
}

func TestTop5IsOneWithFewClasses(t *testing.T) {
	// With ≤5 classes every prediction is top-5 correct by definition.
	ds := probeDataset(4, 16, 8)
	f := pixelFeatures(ds.Gen.ImageLen(), 8)
	_, res, err := FitHead(Config{BatchSize: 8, Epochs: 2, BaseLR: 0.1, Seed: 1}, f, 8, ds)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.FinalTop5-1) > 1e-9 {
		t.Fatalf("top5=%v want 1 with 4 classes", res.FinalTop5)
	}
}

func TestProbeWithMAEFeatures(t *testing.T) {
	// End-to-end: a (randomly initialized) MAE encoder's features feed
	// the probe; verifies the FeatureFunc contract against the real
	// model and that accuracy is a valid fraction.
	enc := vit.Config{Name: "tiny", Width: 16, Depth: 1, MLP: 32, Heads: 2,
		PatchSize: 4, ImageSize: 12, Channels: 3}
	mcfg := mae.Config{Encoder: enc, DecoderWidth: 8, DecoderDepth: 1, DecoderHeads: 2, MaskRatio: 0.75}
	model := mae.New(mcfg, rng.New(2))
	ds := probeDataset(3, 18, 9)
	_, res, err := FitHead(Config{BatchSize: 6, Epochs: 3, BaseLR: 0.1, Seed: 3},
		model.Features, enc.Width, ds)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalTop1 < 0 || res.FinalTop1 > 1 {
		t.Fatalf("top1 out of range: %v", res.FinalTop1)
	}
	if res.TrainCount != 18 || res.TestCount != 9 {
		t.Fatalf("counts not recorded: %+v", res)
	}
}

func TestProbeDeterminism(t *testing.T) {
	ds := probeDataset(3, 30, 15)
	f := pixelFeatures(ds.Gen.ImageLen(), 8)
	cfg := Config{BatchSize: 10, Epochs: 5, BaseLR: 0.1, Seed: 9}
	_, r1, err := FitHead(cfg, f, 8, ds)
	if err != nil {
		t.Fatal(err)
	}
	_, r2, err := FitHead(cfg, f, 8, ds)
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1.Top1Curve.Y {
		if r1.Top1Curve.Y[i] != r2.Top1Curve.Y[i] {
			t.Fatalf("probe runs diverge at epoch %d", i)
		}
	}
}
