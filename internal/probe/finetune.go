package probe

import (
	"fmt"
	"io"

	"repro/internal/geodata"
	"repro/internal/mae"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/rng"
)

// Fine-tuning — the other end of the paper's adaptation spectrum
// ("fine-tuning configurations can range between updating all layers …
// to the linear probing configuration"). FineTune updates the encoder
// trunk jointly with the classifier head using AdamW, in contrast to
// linear probing's frozen trunk + LARS head.

// FineTuneConfig configures full fine-tuning.
type FineTuneConfig struct {
	Epochs      int
	BatchSize   int
	BaseLR      float64 // AdamW, linear batch scaling applies
	WeightDecay float64
	Seed        uint64
	Log         io.Writer
}

// DefaultFineTune mirrors common MAE fine-tuning settings scaled to the
// analog regime.
func DefaultFineTune() FineTuneConfig {
	return FineTuneConfig{Epochs: 10, BatchSize: 16, BaseLR: 1e-3, WeightDecay: 0.05, Seed: 7}
}

// FineTuneResult reports fine-tuning quality per epoch.
type FineTuneResult struct {
	Dataset   string
	Top1Curve metrics.Series
	FinalTop1 float64
	FinalTop5 float64
}

// FineTune trains the MAE encoder and a fresh linear head end-to-end on
// the dataset's train split and evaluates on the test split each epoch.
// The model's parameters are updated in place.
func FineTune(cfg FineTuneConfig, model *mae.Model, ds *geodata.Dataset) (*FineTuneResult, error) {
	if cfg.Epochs <= 0 || cfg.BatchSize <= 0 {
		return nil, fmt.Errorf("probe: non-positive epochs or batch size")
	}
	if ds.TrainCount < cfg.BatchSize {
		return nil, fmt.Errorf("probe: train split %d smaller than batch %d", ds.TrainCount, cfg.BatchSize)
	}
	classes := ds.Classes()
	width := model.Cfg.Encoder.Width
	r := rng.New(cfg.Seed)
	head := nn.NewLinear("finetune.head", width, classes, r)
	ctx := nn.NewTrainCtx()

	params := append(model.EncoderParams(), head.Params()...)
	optim := opt.NewAdamW(params, cfg.WeightDecay)
	stepsPerEpoch := ds.TrainCount / cfg.BatchSize
	sched := opt.CosineSchedule{
		Base:        opt.ScaledLR(cfg.BaseLR, cfg.BatchSize),
		WarmupSteps: stepsPerEpoch,
		TotalSteps:  cfg.Epochs * stepsPerEpoch,
	}

	imgLen := ds.Gen.ImageLen()
	imgs := make([]float32, cfg.BatchSize*imgLen)
	labels := make([]int, cfg.BatchSize)
	dlogits := make([]float32, cfg.BatchSize*classes)
	dfeat := make([]float32, cfg.BatchSize*width)

	res := &FineTuneResult{Dataset: ds.Name}
	res.Top1Curve.Name = ds.Name + " finetune top1"
	step := 0
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		perm := r.Perm(ds.TrainCount)
		for s := 0; s < stepsPerEpoch; s++ {
			for i := 0; i < cfg.BatchSize; i++ {
				labels[i] = ds.TrainSample(perm[s*cfg.BatchSize+i], imgs[i*imgLen:(i+1)*imgLen])
			}
			nn.ZeroGrads(params)
			feat := model.FeaturesWithGrad(imgs, cfg.BatchSize)
			ctx.Reset()
			nn.CrossEntropy(head.Apply(ctx, feat, cfg.BatchSize), labels, classes, dlogits)
			head.Backprop(dfeat, dlogits)
			model.BackwardFeatures(dfeat)
			nn.ClipGradNorm(params, 5)
			optim.Step(sched.LR(step))
			step++
		}
		top1, top5 := evalFineTune(model, head, ctx, ds, classes, cfg.BatchSize)
		res.Top1Curve.Append(float64(epoch+1), top1)
		res.FinalTop1, res.FinalTop5 = top1, top5
		if cfg.Log != nil {
			fmt.Fprintf(cfg.Log, "%s finetune epoch %3d: top1 %.2f%%\n", ds.Name, epoch+1, 100*top1)
		}
	}
	return res, nil
}

func evalFineTune(model *mae.Model, head *nn.Linear, ctx *nn.Arena, ds *geodata.Dataset, classes, batch int) (float64, float64) {
	acc := metrics.NewAccuracy(classes)
	imgLen := ds.Gen.ImageLen()
	imgs := make([]float32, batch*imgLen)
	labels := make([]int, batch)
	for start := 0; start < ds.TestCount; start += batch {
		end := start + batch
		if end > ds.TestCount {
			end = ds.TestCount
		}
		n := end - start
		for i := 0; i < n; i++ {
			labels[i] = ds.TestSample(start+i, imgs[i*imgLen:(i+1)*imgLen])
		}
		ctx.Reset()
		logits := head.Apply(ctx, model.Features(imgs[:n*imgLen], n), n)
		for i := 0; i < n; i++ {
			acc.Observe(logits[i*classes:(i+1)*classes], labels[i])
		}
	}
	return acc.Top1(), acc.Top5()
}
