// Benchmarks regenerating every table and figure of the paper, one
// bench per artifact, plus ablation benches for four modelling choices
// (prefetch overlap, DDP bucket size, hierarchical links, mask ratio).
// Figure benches report the headline quantity (images/s of
// the configuration the paper highlights) as a custom metric, so
// `go test -bench=. -benchmem` doubles as a reproduction run.
package repro

import (
	"strconv"
	"testing"

	"repro/internal/experiments"
	"repro/internal/fsdp"
	"repro/internal/geodata"
	"repro/internal/hw"
	"repro/internal/mae"
	"repro/internal/perfmodel"
	"repro/internal/probe"
	"repro/internal/rng"
	"repro/internal/train"
	"repro/internal/vit"
)

// ---- Table I ----------------------------------------------------------

func BenchmarkTableI_ParamCount(b *testing.B) {
	var last int64
	for i := 0; i < b.N; i++ {
		for _, cfg := range vit.TableI {
			last = cfg.EncoderParams()
		}
	}
	b.ReportMetric(float64(last)/1e6, "ViT15B_Mparams")
}

// ---- Table II ---------------------------------------------------------

func BenchmarkTableII_DatasetGen(b *testing.B) {
	suite := geodata.NewSuite(10, 32, 3, 1)
	buf := make([]float32, suite.Pretrain.Gen.ImageLen())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		suite.Pretrain.TrainSample(i%suite.Pretrain.TrainCount, buf)
	}
}

// ---- Figure 1 ----------------------------------------------------------

func BenchmarkFig1_WeakScalingMAE3B(b *testing.B) {
	var gap64 float64
	for i := 0; i < b.N; i++ {
		t, err := experiments.Fig1Experiment(nil, perfmodel.Precision{})
		if err != nil {
			b.Fatal(err)
		}
		gapRow := t.Rows[len(t.Rows)-1]
		gap64 = atof(b, gapRow[len(gapRow)-1])
	}
	b.ReportMetric(gap64, "comm_gap_pct_64nodes")
}

// ---- Figure 2 ----------------------------------------------------------

func BenchmarkFig2_PrefetchConfigs(b *testing.B) {
	var best float64
	for i := 0; i < b.N; i++ {
		t, err := experiments.Fig2Experiment()
		if err != nil {
			b.Fatal(err)
		}
		best = 0
		for _, row := range t.Rows {
			if v := atof(b, row[3]); v > best {
				best = v
			}
		}
	}
	b.ReportMetric(best, "best_ips_5B_8nodes")
}

// ---- Figure 3 ----------------------------------------------------------

func BenchmarkFig3_WeakScalingSmall(b *testing.B) {
	m := hw.Frontier()
	w := perfmodel.ViTWorkload(vit.ViT3B, 32)
	var ips float64
	for i := 0; i < b.N; i++ {
		r, err := fsdp.Simulate(w, m, 64, fsdp.BestPractice(fsdp.HybridShard, 1))
		if err != nil {
			b.Fatal(err)
		}
		ips = r.ImagesPerSec
	}
	b.ReportMetric(ips, "ips_3B_HYBRID1_64nodes")
}

func BenchmarkFig3_FullTable(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig3Experiment(nil, perfmodel.Precision{}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Figure 4 ----------------------------------------------------------

func BenchmarkFig4_LargeModels(b *testing.B) {
	m := hw.Frontier()
	w := perfmodel.ViTWorkload(vit.ViT5B, 32)
	var ips float64
	for i := 0; i < b.N; i++ {
		r, err := fsdp.Simulate(w, m, 32, fsdp.BestPractice(fsdp.HybridShard, 8))
		if err != nil {
			b.Fatal(err)
		}
		ips = r.ImagesPerSec
	}
	// Paper reports ≈1509 images/s for the best ViT-5B strategy at 32 nodes.
	b.ReportMetric(ips, "ips_5B_best_32nodes")
}

func BenchmarkFig4_FullTable(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig4Experiment(nil, perfmodel.Precision{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4_Traces(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.Fig4TraceExperiment(); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Figure 5 / Table III / Figure 6 ------------------------------------

// BenchmarkFig5_PretrainLoss runs a short real MAE pretraining of the
// smallest analog and reports the final loss (the Figure 5 headline:
// loss decreases, with larger models lower — see cmd/repro for the full
// four-model sweep).
func BenchmarkFig5_PretrainLoss(b *testing.B) {
	s := experiments.TestScale()
	enc, err := vit.Analog("ViT-Base", s.ImageSize, s.PatchSize, s.Channels)
	if err != nil {
		b.Fatal(err)
	}
	suite := geodata.NewSuite(s.SuiteScale, s.ImageSize, s.Channels, s.Seed)
	var final float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := train.PretrainConfig{
			MAE: mae.Default(enc), BatchSize: s.BatchSize, Epochs: 2,
			BaseLR: s.PretrainLR, WeightDecay: 0.05, WarmupEpochs: 1,
			ClipNorm: 5, Workers: s.Workers, Seed: s.Seed, MaxStepsPerEpoch: 4,
		}
		res, err := train.Pretrain(cfg, suite.Pretrain)
		if err != nil {
			b.Fatal(err)
		}
		final = res.LossCurve.Last()
	}
	b.ReportMetric(final, "final_loss")
}

// BenchmarkTableIII_LinearProbe runs the full (test-scale) downstream
// pipeline — four models pretrained and probed on four datasets — and
// reports the top-1 gain of the largest over the smallest model, the
// paper's headline "+30%" number. At test scale (a few images per
// class) this metric swings by ±10% across seeds; the committed
// demo-scale run in EXPERIMENTS.md is the authoritative measurement.
func BenchmarkTableIII_LinearProbe(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunDownstream(experiments.TestScale(), nil)
		if err != nil {
			b.Fatal(err)
		}
		gain = 0
		for _, d := range res.Datasets {
			gain += 100 * res.AccuracyGain(d) / float64(len(res.Datasets))
		}
	}
	b.ReportMetric(gain, "mean_top1_gain_pct")
}

// BenchmarkFig6_ProbeCurves measures one probing run (frozen features,
// per-epoch accuracy tracking) at test scale.
func BenchmarkFig6_ProbeCurves(b *testing.B) {
	s := experiments.TestScale()
	enc, err := vit.Analog("ViT-Base", s.ImageSize, s.PatchSize, s.Channels)
	if err != nil {
		b.Fatal(err)
	}
	model := mae.New(mae.Default(enc), rng.New(1))
	suite := geodata.NewSuite(s.SuiteScale, s.ImageSize, s.Channels, s.Seed)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := probeRun(s, model, enc, suite.Probe[1]); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Ablations -------------------------------------------------------------

// BenchmarkAblation_PrefetchOverlap quantifies the BACKWARD_PRE
// advantage over no prefetch for FULL_SHARD ViT-5B.
func BenchmarkAblation_PrefetchOverlap(b *testing.B) {
	m := hw.Frontier()
	w := perfmodel.ViTWorkload(vit.ViT5B, 32)
	var speedup float64
	for i := 0; i < b.N; i++ {
		pre, err := fsdp.Simulate(w, m, 8, fsdp.Plan{Strategy: fsdp.FullShard,
			Prefetch: fsdp.BackwardPre, LimitAllGathers: true})
		if err != nil {
			b.Fatal(err)
		}
		none, err := fsdp.Simulate(w, m, 8, fsdp.Plan{Strategy: fsdp.FullShard,
			Prefetch: fsdp.PrefetchNone, LimitAllGathers: true})
		if err != nil {
			b.Fatal(err)
		}
		speedup = pre.ImagesPerSec / none.ImagesPerSec
	}
	b.ReportMetric(speedup, "pre_over_none_speedup")
}

// BenchmarkAblation_DDPBucketSize quantifies DDP throughput
// versus bucket size for ViT-3B at 64 nodes (the paper's
// "bucket too small" conjecture).
func BenchmarkAblation_DDPBucketSize(b *testing.B) {
	m := hw.Frontier()
	w := perfmodel.ViTWorkload(vit.ViT3B, 32)
	var ratio float64
	for i := 0; i < b.N; i++ {
		small, err := fsdp.Simulate(w, m, 64, fsdp.Plan{Strategy: fsdp.DDP, DDPBucketBytes: 25 << 20})
		if err != nil {
			b.Fatal(err)
		}
		large, err := fsdp.Simulate(w, m, 64, fsdp.Plan{Strategy: fsdp.DDP, DDPBucketBytes: 400 << 20})
		if err != nil {
			b.Fatal(err)
		}
		ratio = large.ImagesPerSec / small.ImagesPerSec
	}
	b.ReportMetric(ratio, "bucket400MB_over_25MB")
}

// BenchmarkAblation_HierarchicalLinks quantifies
// HYBRID_8GPUs throughput with the real three-tier interconnect versus
// a degraded machine whose intra-node links are no faster than the NIC
// share.
func BenchmarkAblation_HierarchicalLinks(b *testing.B) {
	w := perfmodel.ViTWorkload(vit.ViT5B, 32)
	real := hw.Frontier()
	flat := hw.Frontier()
	flat.PairBW = flat.InterBWPerGPU()
	flat.IntraNodeBW = flat.InterBWPerGPU()
	var speedup float64
	for i := 0; i < b.N; i++ {
		fastR, err := fsdp.Simulate(w, real, 16, fsdp.BestPractice(fsdp.HybridShard, 8))
		if err != nil {
			b.Fatal(err)
		}
		slowR, err := fsdp.Simulate(w, flat, 16, fsdp.BestPractice(fsdp.HybridShard, 8))
		if err != nil {
			b.Fatal(err)
		}
		speedup = fastR.ImagesPerSec / slowR.ImagesPerSec
	}
	b.ReportMetric(speedup, "tiered_over_flat_speedup")
}

// BenchmarkAblation_MaskRatio quantifies MAE step cost versus
// mask ratio (the 75% default versus denser visible sets).
func BenchmarkAblation_MaskRatio(b *testing.B) {
	s := experiments.TestScale()
	enc, err := vit.Analog("ViT-Base", s.ImageSize, s.PatchSize, s.Channels)
	if err != nil {
		b.Fatal(err)
	}
	gen := geodata.NewSceneGen(4, s.ImageSize, s.Channels, 1)
	imgs := make([]float32, 8*gen.ImageLen())
	rng.New(2).FillNormal(imgs, 0, 1)
	for _, ratio := range []float64{0.5, 0.75, 0.9} {
		cfg := mae.Default(enc)
		cfg.MaskRatio = ratio
		model := mae.New(cfg, rng.New(3))
		b.Run(maskName(ratio), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = model.Step(imgs, 8)
			}
		})
	}
}

func maskName(r float64) string {
	switch r {
	case 0.5:
		return "mask50"
	case 0.75:
		return "mask75"
	default:
		return "mask90"
	}
}

func probeRun(s experiments.Scale, model *mae.Model, enc vit.Config, ds *geodata.Dataset) (float64, error) {
	cfg := probe.Config{
		BatchSize: s.ProbeBatch,
		Epochs:    s.ProbeEpochs,
		BaseLR:    s.ProbeLR,
		Seed:      s.Seed,
	}
	r, err := probe.Run(cfg, model.Features, enc.Width, ds)
	if err != nil {
		return 0, err
	}
	return r.FinalTop1, nil
}

func atof(b *testing.B, s string) float64 {
	b.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		b.Fatalf("cell %q not numeric: %v", s, err)
	}
	return v
}
