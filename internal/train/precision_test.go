package train

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/fsdp"
	"repro/internal/opt"
	"repro/internal/tensor"
)

// precisionPlans is the precision axis of the executed matrix: every
// strategy family runs under BF16 — replicated, ZeRO-1, full sharding
// and the two-level hybrid.
func precisionPlans() []fsdp.Plan {
	return []fsdp.Plan{
		fsdp.DefaultDDP(),
		fsdp.BestPractice(fsdp.ShardGradOp, 0),
		fsdp.BestPractice(fsdp.FullShard, 0),
		fsdp.BestPractice(fsdp.HybridShard, 2),
	}
}

// TestPrecisionMatrix extends the strategy matrix to the precision
// axis: for every strategy, a BF16 run must (a) track the fp32 run's
// per-step loss within 5e-3, (b) keep every rank's replica
// bit-identical, (c) put exactly the per-step wire bytes on its rings
// that the dtype-aware fsdp.TrafficPerStep charges, and (d) move
// exactly half the fp32 run's bytes on every reduction/gather ring.
func TestPrecisionMatrix(t *testing.T) {
	for _, world := range []int{2, 4} {
		for _, plan := range precisionPlans() {
			if plan.Strategy == fsdp.HybridShard && world%plan.GroupSize != 0 {
				continue
			}
			t.Run(fmt.Sprintf("%s/world=%d", plan.Name(), world), func(t *testing.T) {
				cfg := tinyDistConfig(world, plan)
				cfg.Epochs = 2
				fp, err := PretrainDistributed(cfg, tinyDataset(32))
				if err != nil {
					t.Fatal(err)
				}
				cfg.Precision = BF16
				bf, err := PretrainDistributed(cfg, tinyDataset(32))
				if err != nil {
					t.Fatal(err)
				}
				if bf.Steps != fp.Steps {
					t.Fatalf("steps: bf16 %d, fp32 %d", bf.Steps, fp.Steps)
				}
				if bf.Precision != BF16 {
					t.Fatalf("result precision %v", bf.Precision)
				}
				// (a) the bf16 loss trajectory tracks fp32 within 5e-3.
				for i := range fp.LossCurve.Y {
					if !relClose(bf.LossCurve.Y[i], fp.LossCurve.Y[i], 5e-3) {
						t.Fatalf("bf16 loss diverges at step %d: %v vs fp32 %v",
							i, bf.LossCurve.Y[i], fp.LossCurve.Y[i])
					}
				}
				// (b) bit-identical replicas on every rank.
				dim := opt.FlatDim(bf.Model.Params())
				refW := make([]float32, dim)
				opt.PackValues(refW, bf.Model.Params())
				buf := make([]float32, dim)
				for rank := 1; rank < len(bf.replicas); rank++ {
					opt.PackValues(buf, bf.replicas[rank].Params())
					for j := range buf {
						if math.Float32bits(buf[j]) != math.Float32bits(refW[j]) {
							t.Fatalf("rank %d diverged from rank 0 at flat element %d", rank, j)
						}
					}
				}
				// The working weights really are bf16-valued: rounding
				// them again is the identity.
				for j, w := range refW {
					if r := tensor.F32FromBF16(tensor.BF16FromF32(w)); math.Float32bits(r) != math.Float32bits(w) {
						t.Fatalf("parameter %d (%v) is not bf16-valued", j, w)
					}
				}
				// (c) measured wire bytes equal the dtype-aware
				// simulator accounting exactly.
				steps := float64(bf.Steps)
				checks := []struct {
					name           string
					measured, want float64
				}{
					{"all-reduce", bf.Comm.AllReduce.MeasuredWireBytes, bf.Traffic.AllReduceBytes * steps},
					{"reduce-scatter", bf.Comm.ReduceScatter.MeasuredWireBytes, bf.Traffic.ReduceScatterBytes * steps},
					{"all-gather", bf.Comm.AllGather.MeasuredWireBytes, bf.Traffic.AllGatherBytes * steps},
				}
				for _, c := range checks {
					if c.measured != c.want {
						t.Errorf("%s: measured %v bytes over %v steps, simulator accounts %v",
							c.name, c.measured, steps, c.want)
					}
				}
				// (d) exactly half the fp32 wire volume, op for op.
				halves := []struct {
					name     string
					bf, fp   float64
					expected bool
				}{
					{"all-reduce", bf.Comm.AllReduce.MeasuredWireBytes, fp.Comm.AllReduce.MeasuredWireBytes, true},
					{"reduce-scatter", bf.Comm.ReduceScatter.MeasuredWireBytes, fp.Comm.ReduceScatter.MeasuredWireBytes, true},
					{"all-gather", bf.Comm.AllGather.MeasuredWireBytes, fp.Comm.AllGather.MeasuredWireBytes, true},
				}
				for _, h := range halves {
					if 2*h.bf != h.fp {
						t.Errorf("%s: bf16 moved %v bytes, fp32 %v (want exactly half)", h.name, h.bf, h.fp)
					}
				}
				// The α–β model prices the same halved volume it measures.
				if bf.Comm.AllGather.ModelWireBytes != bf.Comm.AllGather.MeasuredWireBytes {
					t.Errorf("modeled AG bytes %v != measured %v",
						bf.Comm.AllGather.ModelWireBytes, bf.Comm.AllGather.MeasuredWireBytes)
				}
				// No overflow at the default 2¹⁶ scale on this model,
				// and the growth interval (2000) is far away: the scale
				// must end exactly where it started.
				if bf.FinalLossScale != opt.DefaultLossScale || bf.SkippedSteps != 0 || bf.ScaleBackoffs != 0 {
					t.Errorf("unexpected scaler activity: scale %v, skipped %d, backoffs %d",
						bf.FinalLossScale, bf.SkippedSteps, bf.ScaleBackoffs)
				}
			})
		}
	}
}

// TestBF16FullShardMatchesZeRO1Bitwise: the FULL_SHARD≡ZeRO-1
// equivalence must survive the precision change — the bf16 backward
// re-gather restores the exact bf16 working bytes forward ran with, so
// the trajectories are identical, not merely close.
func TestBF16FullShardMatchesZeRO1Bitwise(t *testing.T) {
	mk := func(plan fsdp.Plan) *DistResult {
		cfg := tinyDistConfig(4, plan)
		cfg.Precision = BF16
		res, err := PretrainDistributed(cfg, tinyDataset(64))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	zero1 := mk(fsdp.BestPractice(fsdp.ShardGradOp, 0))
	full := mk(fsdp.BestPractice(fsdp.FullShard, 0))
	for i := range zero1.LossCurve.Y {
		if full.LossCurve.Y[i] != zero1.LossCurve.Y[i] {
			t.Fatalf("bf16 FULL_SHARD loss differs from ZeRO-1 at step %d: %v vs %v",
				i, full.LossCurve.Y[i], zero1.LossCurve.Y[i])
		}
	}
	dim := opt.FlatDim(zero1.Model.Params())
	a := make([]float32, dim)
	b := make([]float32, dim)
	opt.PackValues(a, zero1.Model.Params())
	opt.PackValues(b, full.Model.Params())
	for j := range a {
		if math.Float32bits(a[j]) != math.Float32bits(b[j]) {
			t.Fatalf("final parameters differ at flat element %d", j)
		}
	}
}

// TestBF16LossScaleBackoff injects an overflow by starting the dynamic
// scale beyond float32 range: the first steps' scaled gradients are
// ±Inf/NaN, so the scaler must skip those updates and back off (halving
// until the scale is finite in float32), after which training proceeds
// and the parameters stay finite. Skipped steps still run the full
// collective schedule, so the measured bytes stay pinned to the
// simulator's accounting even across the backoff window.
func TestBF16LossScaleBackoff(t *testing.T) {
	for _, plan := range []fsdp.Plan{fsdp.DefaultDDP(), fsdp.BestPractice(fsdp.ShardGradOp, 0)} {
		t.Run(plan.Name(), func(t *testing.T) {
			cfg := tinyDistConfig(4, plan)
			cfg.Epochs = 4 // 16 steps: ~6 skip while the scale descends, the rest train
			cfg.Precision = BF16
			cfg.LossScale.Init = 1e40 // float32(1e40) = +Inf → guaranteed overflow
			res, err := PretrainDistributed(cfg, tinyDataset(32))
			if err != nil {
				t.Fatal(err)
			}
			if res.ScaleBackoffs == 0 || res.SkippedSteps == 0 {
				t.Fatalf("no backoff exercised: backoffs %d, skipped %d", res.ScaleBackoffs, res.SkippedSteps)
			}
			if res.SkippedSteps >= res.Steps {
				t.Fatalf("every step skipped (%d of %d): scale never recovered", res.SkippedSteps, res.Steps)
			}
			if res.FinalLossScale >= 1e40 {
				t.Fatalf("scale did not back off: %v", res.FinalLossScale)
			}
			if res.FinalLossScale > math.MaxFloat32 {
				t.Fatalf("final scale %v still overflows float32", res.FinalLossScale)
			}
			w := make([]float32, opt.FlatDim(res.Model.Params()))
			opt.PackValues(w, res.Model.Params())
			if opt.HasNonFinite(w) {
				t.Fatal("non-finite parameters after overflow recovery")
			}
			// Uniform per-step traffic even with skips.
			steps := float64(res.Steps)
			if res.Comm.AllReduce.MeasuredWireBytes != res.Traffic.AllReduceBytes*steps ||
				res.Comm.ReduceScatter.MeasuredWireBytes != res.Traffic.ReduceScatterBytes*steps ||
				res.Comm.AllGather.MeasuredWireBytes != res.Traffic.AllGatherBytes*steps {
				t.Errorf("traffic drifted from simulator across skipped steps: %+v vs %+v × %v",
					res.Comm, res.Traffic, steps)
			}
		})
	}
}

// TestBF16LossScaleBackoffPaddedWorld is the backoff test on a world
// whose padding is non-empty: 3 ranks pad the tiny model's 6728
// elements to 6729, and the pad element rides the same buffers the
// overflowing loss scale (+Inf) is multiplied into. It must stay exactly
// zero — 0·Inf = NaN there would never be cleared (ZeroGrads walks the
// parameters, not the pad), the owning rank's overflow verdict would
// read it on every later step, and the run would skip to the end.
func TestBF16LossScaleBackoffPaddedWorld(t *testing.T) {
	for _, plan := range []fsdp.Plan{fsdp.BestPractice(fsdp.ShardGradOp, 0), fsdp.BestPractice(fsdp.FullShard, 0)} {
		t.Run(plan.Name(), func(t *testing.T) {
			cfg := tinyDistConfig(3, plan)
			cfg.BatchSize = 6
			cfg.Epochs = 4 // 20 steps
			cfg.Precision = BF16
			cfg.LossScale.Init = 1e40
			res, err := PretrainDistributed(cfg, tinyDataset(32))
			if err != nil {
				t.Fatal(err)
			}
			if dim := len(res.State.Master); opt.PadTo(dim, cfg.Ranks) == dim {
				t.Fatalf("%d elements divide by %d ranks: this world has no padding to test", dim, cfg.Ranks)
			}
			if res.SkippedSteps == 0 || res.SkippedSteps >= res.Steps {
				t.Fatalf("skipped %d of %d steps, want some but not all", res.SkippedSteps, res.Steps)
			}
			w := make([]float32, opt.FlatDim(res.Model.Params()))
			opt.PackValues(w, res.Model.Params())
			if opt.HasNonFinite(w) {
				t.Fatal("non-finite parameters after overflow recovery")
			}
			steps := float64(res.Steps)
			if res.Comm.AllReduce.MeasuredWireBytes != res.Traffic.AllReduceBytes*steps ||
				res.Comm.ReduceScatter.MeasuredWireBytes != res.Traffic.ReduceScatterBytes*steps ||
				res.Comm.AllGather.MeasuredWireBytes != res.Traffic.AllGatherBytes*steps {
				t.Errorf("traffic drifted from simulator across skipped steps: %+v vs %+v × %v",
					res.Comm, res.Traffic, steps)
			}
		})
	}
}

// TestBF16ScaleGrowth: with a short growth interval the scaler doubles
// on schedule — 8 clean steps at interval 2 quadruple-double the scale.
func TestBF16ScaleGrowth(t *testing.T) {
	cfg := tinyDistConfig(2, fsdp.DefaultDDP())
	cfg.Epochs = 2 // 8 steps
	cfg.Precision = BF16
	cfg.LossScale.Interval = 2
	res, err := PretrainDistributed(cfg, tinyDataset(32))
	if err != nil {
		t.Fatal(err)
	}
	want := float64(opt.DefaultLossScale) * 16 // 8 steps / interval 2 → 4 doublings
	if res.FinalLossScale != want {
		t.Fatalf("final scale %v, want %v", res.FinalLossScale, want)
	}
	if res.SkippedSteps != 0 {
		t.Fatalf("clean run skipped %d steps", res.SkippedSteps)
	}
}

// TestPrecisionValidation: an unknown precision fails fast.
func TestPrecisionValidation(t *testing.T) {
	cfg := tinyDistConfig(2, fsdp.DefaultDDP())
	cfg.Precision = Precision(99)
	if _, err := PretrainDistributed(cfg, tinyDataset(32)); err == nil {
		t.Fatal("unknown precision accepted")
	}
}
