package train

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"repro/internal/fsdp"
)

// Every other suite in this package trains with ClipNorm 5, which the
// tiny models' gradient norms (0.1–0.7) never reach: the clip path —
// Σg² over parameters vs over owned spans, its all-reduce, the clip
// factor folded into the AdamW kernel's read of the gradient — would
// be outside every bitwise test. The tests below rerun the backbone
// equivalences with a threshold every step exceeds.
const clipEveryStep = 0.01

func clippedDistConfig(ranks int, plan fsdp.Plan, prec Precision) DistConfig {
	cfg := tinyDistConfig(ranks, plan)
	cfg.ClipNorm = clipEveryStep
	cfg.Precision = prec
	return cfg
}

func mustPretrainDistributed(t *testing.T, cfg DistConfig, samples int) *DistResult {
	t.Helper()
	res, err := PretrainDistributed(cfg, tinyDataset(samples))
	if err != nil {
		t.Fatalf("%s/%s on %d ranks: %v", cfg.Plan.Name(), cfg.Precision, cfg.Ranks, err)
	}
	return res
}

func sameLosses(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// TestClipEngagedSingleRankMatchesPretrain: with the clip engaged at
// every step (checked on each pre-clip norm the reference loop reads),
// the public sequence ZeroGrads → Step → ClipGradNorm → AdamW.Step
// (referencePretrain), Pretrain and every strategy's 1-rank
// PretrainDistributed train one trajectory bit for bit — the
// per-parameter and the per-span Σg² are the same sum, and a clip
// factor applied by Scale or inside the kernel is the same product.
func TestClipEngagedSingleRankMatchesPretrain(t *testing.T) {
	cfg := clippedDistConfig(1, fsdp.DefaultDDP(), FP32).PretrainConfig
	refLoss, refParams := referencePretrain(t, cfg, tinyDataset(32), func(step int, norm float64) {
		if norm < 2*cfg.ClipNorm {
			t.Fatalf("step %d: gradient norm %v does not engage the clip at %v", step, norm, cfg.ClipNorm)
		}
	})
	single, err := Pretrain(cfg, tinyDataset(32))
	if err != nil {
		t.Fatal(err)
	}
	if len(refLoss) != len(single.LossCurve.Y) {
		t.Fatalf("rebuilt loop ran %d steps, Pretrain %d", len(refLoss), len(single.LossCurve.Y))
	}
	if i := sameLosses(refLoss, single.LossCurve.Y); i >= 0 {
		t.Fatalf("public call sequence differs from Pretrain at step %d: %v vs %v", i, refLoss[i], single.LossCurve.Y[i])
	}

	for _, plan := range matrixPlans() {
		if plan.Validate(1) != nil {
			continue
		}
		got := mustPretrainDistributed(t, clippedDistConfig(1, plan, FP32), 32)
		if i := sameLosses(refLoss, got.LossCurve.Y); i >= 0 {
			t.Fatalf("%s: 1-rank distributed differs from the reference loop at step %d: %v vs %v",
				plan.Name(), i, got.LossCurve.Y[i], refLoss[i])
		}
		if !bitsEqual(packedParams(got.Model), refParams) {
			t.Fatalf("%s: final parameters differ from the reference loop's", plan.Name())
		}
	}
}

// TestClipEngagedMatrix: on 2 and 4 ranks, under both precisions, a
// clipping run keeps every replica bit-identical (the shard group's
// Σg² all-reduce hands every member the same clip factor) and tracks
// the clipping 1-rank run within 1e-4 (FP32) at every step.
func TestClipEngagedMatrix(t *testing.T) {
	ref, err := Pretrain(clippedDistConfig(1, fsdp.DefaultDDP(), FP32).PretrainConfig, tinyDataset(64))
	if err != nil {
		t.Fatal(err)
	}
	for _, ranks := range []int{2, 4} {
		for _, plan := range []fsdp.Plan{fsdp.DefaultDDP(), fsdp.BestPractice(fsdp.ShardGradOp, 0),
			fsdp.BestPractice(fsdp.FullShard, 0), fsdp.BestPractice(fsdp.HybridShard, 2)} {
			for _, prec := range []Precision{FP32, BF16} {
				name := fmt.Sprintf("%s/%s/%d", plan.Name(), prec, ranks)
				res := mustPretrainDistributed(t, clippedDistConfig(ranks, plan, prec), 64)
				for rank := 1; rank < len(res.replicas); rank++ {
					if !bitsEqual(packedParams(res.replicas[rank]), packedParams(res.Model)) {
						t.Fatalf("%s: rank %d diverged from rank 0", name, rank)
					}
				}
				if res.SkippedSteps != 0 {
					t.Fatalf("%s: %d skipped steps", name, res.SkippedSteps)
				}
				tol := 1e-4
				if prec == BF16 {
					tol = 5e-3 // TestPrecisionMatrix's bf16 band
				}
				for i, l := range res.LossCurve.Y {
					if !relClose(l, ref.LossCurve.Y[i], tol) {
						t.Fatalf("%s: loss %v at step %d, 1-rank fp32 %v", name, l, i, ref.LossCurve.Y[i])
					}
				}
			}
		}
	}
}

// TestClipEngagedFullShardMatchesZeRO1Bitwise: dropping and
// re-gathering parameter shards changes no bit of a clipping
// trajectory either, under FP32 and BF16.
func TestClipEngagedFullShardMatchesZeRO1Bitwise(t *testing.T) {
	for _, prec := range []Precision{FP32, BF16} {
		zero1 := mustPretrainDistributed(t, clippedDistConfig(4, fsdp.BestPractice(fsdp.ShardGradOp, 0), prec), 64)
		full := mustPretrainDistributed(t, clippedDistConfig(4, fsdp.BestPractice(fsdp.FullShard, 0), prec), 64)
		if i := sameLosses(zero1.LossCurve.Y, full.LossCurve.Y); i >= 0 {
			t.Fatalf("%s: FULL_SHARD loss differs from ZeRO-1 at step %d: %v vs %v",
				prec, i, full.LossCurve.Y[i], zero1.LossCurve.Y[i])
		}
		if !bitsEqual(packedParams(full.Model), packedParams(zero1.Model)) {
			t.Fatalf("%s: final parameters differ", prec)
		}
	}
}

// TestClipEngagedResumeBitwise: a clipping run's epoch-2 snapshot,
// checkpointed through the on-disk encoding and resumed, ends on the
// uninterrupted run's exact losses, parameters and moments.
func TestClipEngagedResumeBitwise(t *testing.T) {
	for _, c := range []struct {
		plan fsdp.Plan
		prec Precision
	}{
		{fsdp.DefaultDDP(), FP32},
		{fsdp.BestPractice(fsdp.FullShard, 0), BF16},
		{fsdp.BestPractice(fsdp.HybridShard, 2), BF16},
	} {
		name := fmt.Sprintf("%s/%s", c.plan.Name(), c.prec)
		base := clippedDistConfig(4, c.plan, c.prec)
		base.Epochs = 4
		ref, st := snapshotAt(t, base, 32, 2)
		var file bytes.Buffer
		if err := SaveTrainState(&file, st); err != nil {
			t.Fatal(err)
		}
		legB := base
		var err error
		if legB.Resume, err = LoadTrainState(&file); err != nil {
			t.Fatal(err)
		}
		b := mustPretrainDistributed(t, legB, 32)

		half := len(ref.LossCurve.Y) / 2
		if i := sameLosses(b.LossCurve.Y, ref.LossCurve.Y[half:]); i >= 0 {
			t.Fatalf("%s: resumed loss differs at step %d", name, half+i)
		}
		if !bitsEqual(packedParams(b.Model), packedParams(ref.Model)) {
			t.Fatalf("%s: resumed parameters differ", name)
		}
		if !bitsEqual(b.State.Master, ref.State.Master) || !bitsEqual(b.State.OptM, ref.State.OptM) ||
			!bitsEqual(b.State.OptV, ref.State.OptV) {
			t.Fatalf("%s: resumed train state differs", name)
		}
	}
}
