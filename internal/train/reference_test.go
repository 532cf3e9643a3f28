package train

import (
	"testing"

	"repro/internal/dataload"
	"repro/internal/fsdp"
	"repro/internal/geodata"
	"repro/internal/mae"
	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/rng"
)

// referencePretrain is the independent statement of what a pretraining
// run is, written from the public per-parameter calls and sharing no
// code with rank.go: seed-built model, shuffled drop-last loader, and
// per step ZeroGrads → Model.Step → ClipGradNorm → AdamW.Step at the
// cosine schedule's rate. Pretrain is PretrainDistributed on one rank,
// so the "1-rank distributed ≡ single-rank" suites compare against this
// loop, not against Pretrain — otherwise they would assert x ≡ x. It
// returns the per-step losses and the final parameters, packed.
// onNorm, when non-nil, receives every step's pre-clip gradient norm.
func referencePretrain(t *testing.T, cfg PretrainConfig, ds *geodata.Dataset, onNorm func(step int, norm float64)) (losses []float64, packed []float32) {
	t.Helper()
	model := mae.New(cfg.MAE, rng.New(cfg.Seed))
	params := model.Params()
	optim := opt.NewAdamW(params, cfg.WeightDecay)
	perEpoch := ds.TrainCount / cfg.BatchSize
	if cfg.MaxStepsPerEpoch > 0 {
		perEpoch = min(perEpoch, cfg.MaxStepsPerEpoch)
	}
	sched := opt.CosineSchedule{Base: opt.ScaledLR(cfg.BaseLR, cfg.BatchSize),
		WarmupSteps: cfg.WarmupEpochs * perEpoch, TotalSteps: cfg.Epochs * perEpoch}
	loader := dataload.New(
		dataload.TrainSplit{D: ds, Count: ds.TrainCount, ImgLen: ds.Gen.ImageLen()},
		dataload.Config{BatchSize: cfg.BatchSize, Workers: cfg.Workers, Shuffle: true, DropLast: true,
			Seed: cfg.Seed ^ 0xDA7A})
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		for batch := range loader.EpochN(perEpoch) {
			step := len(losses)
			nn.ZeroGrads(params)
			losses = append(losses, model.Step(batch.Images, batch.Size))
			if cfg.ClipNorm > 0 {
				norm := nn.ClipGradNorm(params, cfg.ClipNorm)
				if onNorm != nil {
					onNorm(step, norm)
				}
			}
			optim.Step(sched.LR(step))
			loader.Recycle(batch)
		}
	}
	return losses, packedParams(model)
}

// TestPretrainMatchesReference ties the production entry point to the
// oracle the other suites use: Pretrain trains referencePretrain's
// trajectory bit for bit, losses and parameters, and the one-rank world
// it rides on puts no byte on a wire for any collective.
func TestPretrainMatchesReference(t *testing.T) {
	cfg := tinyDistConfig(1, fsdp.DefaultDDP()).PretrainConfig
	wantLoss, wantParams := referencePretrain(t, cfg, tinyDataset(32), nil)
	got, err := Pretrain(cfg, tinyDataset(32))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.LossCurve.Y) != len(wantLoss) || got.Steps != len(wantLoss) {
		t.Fatalf("Pretrain ran %d steps (%d losses), reference %d", got.Steps, len(got.LossCurve.Y), len(wantLoss))
	}
	if i := sameLosses(wantLoss, got.LossCurve.Y); i >= 0 {
		t.Fatalf("Pretrain differs from the reference loop at step %d: %v vs %v", i, got.LossCurve.Y[i], wantLoss[i])
	}
	if !bitsEqual(packedParams(got.Model), wantParams) {
		t.Fatal("Pretrain's final parameters differ from the reference loop's")
	}

	one := mustPretrainDistributed(t, DistConfig{PretrainConfig: cfg, Ranks: 1}, 32)
	if i := sameLosses(wantLoss, one.LossCurve.Y); i >= 0 {
		t.Fatalf("the world-1 call Pretrain makes differs from the reference loop at step %d", i)
	}
	c := one.Comm
	for name, op := range map[string]float64{
		"broadcast":      c.Broadcast.MeasuredWireBytes,
		"all-reduce":     c.AllReduce.MeasuredWireBytes,
		"reduce-scatter": c.ReduceScatter.MeasuredWireBytes,
		"all-gather":     c.AllGather.MeasuredWireBytes,
		"scalar":         c.Scalar.MeasuredWireBytes,
	} {
		if op > 0 {
			t.Errorf("one-rank world measured %v wire bytes of %s", op, name)
		}
	}
}
