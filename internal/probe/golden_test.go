package probe

import (
	"runtime"
	"testing"

	"repro/internal/geodata"
	"repro/internal/golden"
)

// fingerprint is the golden fingerprint of a fitted head (W, B, Mean,
// InvStd) followed by every curve a probe reports.
func fingerprint(h *Head, curves ...[]float64) uint64 {
	parts := []any{h.W, h.B, h.Mean, h.InvStd}
	for _, c := range curves {
		parts = append(parts, c)
	}
	return golden.Fingerprint(parts...)
}

// TestFittedHeadsGolden pins every bit both probes produce — the head
// and the curves — at one and four workers. The "wrap" fixtures draw a
// batch larger than the train split, so each step's permuted rows wrap
// around; the 300-image and 70-image test splits take more than one
// evaluation chunk.
func TestFittedHeadsGolden(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	model := tinyMAEModel(3)
	split := func(classes, train, test int, seed uint64) *geodata.Dataset {
		gen := geodata.NewSceneGen(classes, 16, 3, seed)
		return &geodata.Dataset{Name: "golden", Gen: gen, TrainCount: train, TestCount: test}
	}
	classify := func(cfg Config, f FeatureFunc, dim int, ds *geodata.Dataset) func() (uint64, error) {
		return func() (uint64, error) {
			h, r, err := FitHead(cfg, f, dim, ds)
			if err != nil {
				return 0, err
			}
			return fingerprint(h, r.Top1Curve.Y, r.Top5Curve.Y, []float64{r.FinalTop1, r.FinalTop5}), nil
		}
	}
	segment := func(cfg Config, ds *geodata.Dataset) func() (uint64, error) {
		return func() (uint64, error) {
			h, r, err := FitSegHead(cfg, model.TokenFeatures, 16, ds, 4)
			if err != nil {
				return 0, err
			}
			return fingerprint(h, r.AccCurve.Y, []float64{r.PatchAccuracy, r.MeanIoU}, r.PerClassIoU), nil
		}
	}
	pixels := split(3, 60, 300, 21)
	cases := []struct {
		name string
		want uint64
		fit  func() (uint64, error)
	}{
		{"classify/pixels-b12", 0x4e611725c415eeca, classify(Config{BatchSize: 12, Epochs: 5, BaseLR: 0.1, Seed: 1},
			pixelFeatures(pixels.Gen.ImageLen(), 16), 16, pixels)},
		{"classify/mae-b6", 0x411ae939122cebac, classify(Config{BatchSize: 6, Epochs: 4, BaseLR: 0.1, Seed: 3},
			model.Features, 16, split(4, 24, 12, 5))},
		{"classify/pixels-b40-wrap", 0x3f9c766dfe5d5192, classify(Config{BatchSize: 40, Epochs: 3, BaseLR: 0.1, Seed: 5},
			pixelFeatures(pixels.Gen.ImageLen(), 8), 8, split(3, 15, 9, 9))},
		{"segment/b4", 0x66b7ff1a64cb17ea, segment(Config{BatchSize: 4, Epochs: 4, BaseLR: 0.1, Seed: 1}, split(4, 16, 70, 11))},
		{"segment/b24-wrap", 0x608e0768667b508b, segment(Config{BatchSize: 24, Epochs: 3, BaseLR: 0.1, Seed: 2}, split(3, 8, 6, 13))},
	}
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for _, c := range cases {
			got, err := c.fit()
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if got != c.want {
				t.Errorf("GOMAXPROCS=%d %s: fingerprint %#x, want %#x", procs, c.name, got, c.want)
			}
		}
	}
}
