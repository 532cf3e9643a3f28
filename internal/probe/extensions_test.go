package probe

import (
	"math"
	"testing"

	"repro/internal/geodata"
	"repro/internal/mae"
	"repro/internal/rng"
	"repro/internal/vit"
)

func tinyEncoder() vit.Config {
	return vit.Config{Name: "tiny", Width: 16, Depth: 2, MLP: 32, Heads: 2,
		PatchSize: 4, ImageSize: 16, Channels: 3}
}

func tinyMAEModel(seed uint64) *mae.Model {
	return mae.New(mae.Default(tinyEncoder()), rng.New(seed))
}

// ---- Few-shot ----------------------------------------------------------

func TestFewShotSubsetPrefixIsBalanced(t *testing.T) {
	gen := geodata.NewSceneGen(5, 16, 3, 1)
	ds := &geodata.Dataset{Name: "fs", Gen: gen, TrainCount: 50, TestCount: 10}
	f := pixelFeatures(gen.ImageLen(), 8)
	res, err := FewShot(Config{BatchSize: 5, Epochs: 2, BaseLR: 0.1, Seed: 1}, f, 8, ds, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.TrainCount != 15 {
		t.Fatalf("few-shot train count %d want 15", res.TrainCount)
	}
	if res.Dataset != "fs-3shot" {
		t.Fatalf("name %q", res.Dataset)
	}
	// Original dataset untouched.
	if ds.TrainCount != 50 {
		t.Fatal("FewShot mutated the dataset")
	}
}

func TestFewShotValidation(t *testing.T) {
	gen := geodata.NewSceneGen(5, 16, 3, 1)
	ds := &geodata.Dataset{Name: "fs", Gen: gen, TrainCount: 10, TestCount: 5}
	f := pixelFeatures(gen.ImageLen(), 8)
	if _, err := FewShot(Config{BatchSize: 4, Epochs: 1, BaseLR: 0.1}, f, 8, ds, 0); err == nil {
		t.Fatal("0 shots accepted")
	}
	if _, err := FewShot(Config{BatchSize: 4, Epochs: 1, BaseLR: 0.1}, f, 8, ds, 3); err == nil {
		t.Fatal("shots exceeding train split accepted")
	}
}

func TestShotSweepProducesValidCurve(t *testing.T) {
	// The sweep must return one valid result per shot count, and with 8
	// labeled examples per class the probe must beat chance on this
	// separable 3-class task. (Tiny-sample accuracies are noisy, so we
	// do not assert monotonicity between 1 and 8 shots.)
	gen := geodata.NewSceneGen(3, 16, 3, 5)
	ds := &geodata.Dataset{Name: "sweep", Gen: gen, TrainCount: 30, TestCount: 30}
	f := pixelFeatures(gen.ImageLen(), 16)
	cfg := Config{BatchSize: 3, Epochs: 20, BaseLR: 0.1, Seed: 2}
	rs, err := ShotSweep(cfg, f, 16, ds, []int{1, 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 {
		t.Fatalf("results=%d", len(rs))
	}
	for _, r := range rs {
		if r.FinalTop1 < 0 || r.FinalTop1 > 1 {
			t.Fatalf("%s top1 %v out of range", r.Dataset, r.FinalTop1)
		}
	}
	if rs[1].FinalTop1 <= 1.0/3 {
		t.Fatalf("8-shot top1 %.3f not above chance", rs[1].FinalTop1)
	}
}

// ---- Segmentation --------------------------------------------------------

func TestSegmentationMaskDeterministicAndAligned(t *testing.T) {
	gen := geodata.NewSceneGen(4, 16, 3, 9)
	imgA := make([]float32, gen.ImageLen())
	imgB := make([]float32, gen.ImageLen())
	maskA := make([]uint8, 16*16)
	maskB := make([]uint8, 16*16)
	gen.ImageWithMask(1, 2, imgA, maskA)
	gen.ImageWithMask(1, 2, imgB, maskB)
	for i := range maskA {
		if maskA[i] != maskB[i] {
			t.Fatal("mask not deterministic")
		}
		if maskA[i] >= geodata.SegClasses {
			t.Fatalf("invalid label %d", maskA[i])
		}
	}
	// Image identical to plain rendering.
	plain := make([]float32, gen.ImageLen())
	gen.Image(1, 2, plain)
	for i := range plain {
		if plain[i] != imgA[i] {
			t.Fatal("ImageWithMask altered the image")
		}
	}
}

func TestSegmentationMaskHasStructureSomewhere(t *testing.T) {
	// Across classes and samples, at least one pixel must be labeled
	// structure or grid — otherwise the task is degenerate.
	gen := geodata.NewSceneGen(8, 16, 1, 3)
	mask := make([]uint8, 16*16)
	img := make([]float32, gen.ImageLen())
	nonBG := 0
	for c := 0; c < 8; c++ {
		gen.ImageWithMask(c, 0, img, mask)
		for _, v := range mask {
			if v != geodata.SegBackground {
				nonBG++
			}
		}
	}
	if nonBG == 0 {
		t.Fatal("no structure pixels in any class")
	}
}

func TestPatchLabelsMajority(t *testing.T) {
	// 4×4 image, patch 2 → 4 patches.
	mask := []uint8{
		1, 1, 0, 0,
		1, 0, 0, 0,
		2, 2, 1, 0,
		2, 2, 0, 0,
	}
	dst := make([]int, 4)
	geodata.PatchLabels(mask, 4, 2, dst)
	if dst[0] != 1 || dst[1] != 0 || dst[2] != 2 || dst[3] != 0 {
		t.Fatalf("patch labels %v", dst)
	}
}

func TestPatchLabelsValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for indivisible patch")
		}
	}()
	geodata.PatchLabels(make([]uint8, 16), 4, 3, make([]int, 4))
}

func TestRunSegmentationEndToEnd(t *testing.T) {
	gen := geodata.NewSceneGen(4, 16, 3, 11)
	ds := &geodata.Dataset{Name: "seg", Gen: gen, TrainCount: 16, TestCount: 8}
	model := tinyMAEModel(3)
	cfg := Config{Epochs: 6, BatchSize: 4, BaseLR: 0.1, Seed: 1}
	_, res, err := FitSegHead(cfg, model.TokenFeatures, 16, ds, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.PatchAccuracy < 0 || res.PatchAccuracy > 1 {
		t.Fatalf("accuracy %v", res.PatchAccuracy)
	}
	if res.MeanIoU < 0 || res.MeanIoU > 1 {
		t.Fatalf("mIoU %v", res.MeanIoU)
	}
	if len(res.PerClassIoU) != geodata.SegClasses {
		t.Fatalf("per-class IoU %v", res.PerClassIoU)
	}
	if len(res.AccCurve.Y) != cfg.Epochs {
		t.Fatalf("curve %d points", len(res.AccCurve.Y))
	}
	// A linear head on encoder tokens should beat always-background
	// guessing... at minimum it must be a valid nonzero accuracy.
	if res.PatchAccuracy == 0 {
		t.Fatal("zero accuracy — pipeline broken")
	}
}

func TestRunSegmentationValidation(t *testing.T) {
	gen := geodata.NewSceneGen(2, 16, 3, 1)
	ds := &geodata.Dataset{Name: "seg", Gen: gen, TrainCount: 4, TestCount: 2}
	model := tinyMAEModel(1)
	if _, _, err := FitSegHead(Config{Epochs: 0, BatchSize: 2}, model.TokenFeatures, 16, ds, 4); err == nil {
		t.Fatal("0 epochs accepted")
	}
	if _, _, err := FitSegHead(Config{Epochs: 1, BatchSize: 2, BaseLR: 0.1}, model.TokenFeatures, 16, ds, 5); err == nil {
		t.Fatal("indivisible patch accepted")
	}
}

// ---- Fine-tuning --------------------------------------------------------

func TestFineTuneImprovesOverEpochsOrStaysSane(t *testing.T) {
	gen := geodata.NewSceneGen(3, 16, 3, 21)
	ds := &geodata.Dataset{Name: "ft", Gen: gen, TrainCount: 24, TestCount: 12}
	model := tinyMAEModel(5)
	// LR raised for the tiny step budget (linear scaling divides by 256).
	cfg := FineTuneConfig{Epochs: 10, BatchSize: 8, BaseLR: 0.05, WeightDecay: 0.05, Seed: 2}
	res, err := FineTune(cfg, model, ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Top1Curve.Y) != cfg.Epochs {
		t.Fatalf("curve %d points", len(res.Top1Curve.Y))
	}
	if math.IsNaN(res.FinalTop1) || res.FinalTop1 < 0 || res.FinalTop1 > 1 {
		t.Fatalf("top1 %v", res.FinalTop1)
	}
	if res.FinalTop5 < res.FinalTop1 {
		t.Fatalf("top5 %v < top1 %v", res.FinalTop5, res.FinalTop1)
	}
	// Fine-tuning the trunk on a learnable 3-class task must beat chance.
	if res.FinalTop1 <= 1.0/3 {
		t.Fatalf("fine-tuned top1 %.3f not above chance", res.FinalTop1)
	}
}

func TestFineTuneValidation(t *testing.T) {
	gen := geodata.NewSceneGen(2, 16, 3, 1)
	ds := &geodata.Dataset{Name: "ft", Gen: gen, TrainCount: 4, TestCount: 2}
	model := tinyMAEModel(1)
	if _, err := FineTune(FineTuneConfig{Epochs: 0, BatchSize: 2}, model, ds); err == nil {
		t.Fatal("0 epochs accepted")
	}
	if _, err := FineTune(FineTuneConfig{Epochs: 1, BatchSize: 50, BaseLR: 1e-3}, model, ds); err == nil {
		t.Fatal("batch larger than split accepted")
	}
}

// TestFineTuneBeatsLinearProbeOnTinyTask verifies the expected protocol
// relationship: with enough labeled data, updating the trunk should do
// at least as well as the frozen-trunk probe.
func TestFineTuneBeatsLinearProbeOnTinyTask(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	gen := geodata.NewSceneGen(3, 16, 3, 33)
	ds := &geodata.Dataset{Name: "cmp", Gen: gen, TrainCount: 30, TestCount: 15}

	frozen := tinyMAEModel(7)
	_, lp, err := FitHead(Config{BatchSize: 10, Epochs: 12, BaseLR: 0.1, Seed: 3},
		frozen.Features, 16, ds)
	if err != nil {
		t.Fatal(err)
	}

	// The fine-tune LR is raised because linear batch scaling divides by
	// 256 while the test batch is 10, and the budget is only ~45 steps.
	tuned := tinyMAEModel(7) // identical init
	ft, err := FineTune(FineTuneConfig{Epochs: 15, BatchSize: 10, BaseLR: 0.05,
		WeightDecay: 0.05, Seed: 3}, tuned, ds)
	if err != nil {
		t.Fatal(err)
	}
	if ft.FinalTop1+0.15 < lp.FinalTop1 {
		t.Fatalf("fine-tune (%.3f) far below linear probe (%.3f)", ft.FinalTop1, lp.FinalTop1)
	}
}
