// Package train implements the self-supervised pretraining engine —
// the Section V pretraining recipe of the paper at laptop scale: one
// epoch/step loop over the MAE model (PretrainDistributed and the
// per-rank code in rank.go) with sharded AdamW, linear-warmup cosine
// learning-rate schedule, gradient clipping and loss telemetry, run on
// any world from one rank up under every strategy of the Section III-C
// matrix, and one on-disk artifact, the resumable TrainState.
package train

import (
	"io"

	"repro/internal/geodata"
	"repro/internal/mae"
	"repro/internal/metrics"
)

// PretrainConfig carries the pretraining hyper-parameters. The defaults
// (via DefaultPretrain) follow Section V: AdamW with base LR 1.5e-4
// under the linear batch-scaling rule, weight decay 0.05, cosine decay,
// 75% masking (part of the MAE config).
type PretrainConfig struct {
	MAE          mae.Config
	BatchSize    int
	Epochs       int
	BaseLR       float64
	WeightDecay  float64
	WarmupEpochs int
	ClipNorm     float64
	Workers      int
	Seed         uint64
	// Log receives progress lines; nil silences output.
	Log io.Writer
	// MaxStepsPerEpoch truncates epochs (0 = full epochs); used by fast
	// tests and the runnable examples.
	MaxStepsPerEpoch int
}

// DefaultPretrain returns the paper's recipe for a given MAE config.
func DefaultPretrain(m mae.Config) PretrainConfig {
	return PretrainConfig{
		MAE:          m,
		BatchSize:    32,
		Epochs:       100,
		BaseLR:       1.5e-4,
		WeightDecay:  0.05,
		WarmupEpochs: 5,
		ClipNorm:     5.0,
		Workers:      4,
		Seed:         1,
	}
}

// PretrainResult bundles the trained model and its telemetry.
type PretrainResult struct {
	Model *mae.Model
	// LossCurve holds (step, loss) points — the Figure 5 series.
	LossCurve metrics.Series
	// EpochLoss holds (epoch, mean loss) points.
	EpochLoss    metrics.Series
	ImagesPerSec float64
	Steps        int
}

// Pretrain runs MAE pretraining over the dataset's training split and
// returns the model plus loss curves: PretrainDistributed on a world of
// one rank under the default plan, where every collective is a no-op
// that moves no bytes (the paper's single GPU as the degenerate cell of
// the FSDP matrix). It captures no TrainState: a run that is to be
// resumed calls PretrainDistributed.
func Pretrain(cfg PretrainConfig, ds *geodata.Dataset) (*PretrainResult, error) {
	res, err := pretrainDistributed(DistConfig{PretrainConfig: cfg, Ranks: 1}, ds, false)
	if err != nil {
		return nil, err
	}
	return &res.PretrainResult, nil
}
