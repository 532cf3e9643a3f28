package train

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/comm"
	"repro/internal/dist"
	"repro/internal/fsdp"
)

// BenchmarkDistStep measures whole training steps per second versus
// world size and precision at a fixed global batch (strong scaling of
// the in-process execution layer, fp32 against the bf16 wire mode).
// Recorded into BENCH_dist.json by `make bench-dist` for the cross-PR
// perf trajectory.
func BenchmarkDistStep(b *testing.B) {
	for _, prec := range []Precision{FP32, BF16} {
		for _, ranks := range []int{1, 2, 4} {
			for _, plan := range []fsdp.Plan{
				fsdp.DefaultDDP(),
				fsdp.BestPractice(fsdp.ShardGradOp, 0),
				fsdp.BestPractice(fsdp.FullShard, 0),
				fsdp.BestPractice(fsdp.HybridShard, 2),
			} {
				if plan.Strategy == fsdp.HybridShard && ranks%plan.GroupSize != 0 {
					continue // the hybrid tiling needs the group to divide the world
				}
				b.Run(fmt.Sprintf("%s/ranks=%d/prec=%s", plan.Name(), ranks, prec), func(b *testing.B) {
					cfg := tinyDistConfig(ranks, plan)
					cfg.Precision = prec
					cfg.BatchSize = 16
					cfg.Epochs = 1
					cfg.MaxStepsPerEpoch = b.N
					ds := tinyDataset(16 * (b.N + 1))
					b.ResetTimer()
					res, err := PretrainDistributed(cfg, ds)
					if err != nil {
						b.Fatal(err)
					}
					b.StopTimer()
					if res.Steps != b.N {
						b.Fatalf("ran %d steps for b.N=%d", res.Steps, b.N)
					}
					b.ReportMetric(float64(res.Steps)/b.Elapsed().Seconds(), "steps/s")
					b.ReportMetric(res.ImagesPerSec, "images/s")
					b.ReportMetric(res.Traffic.Total(), "wireB/step")
				})
			}
		}
	}
}

// BenchmarkDistStepOverlap measures the hidden-latency win on a
// congested simulated link (dist throttle realizes the α–β collective
// cost as executed delay): the 8-rank DDP step with overlap on versus
// off, at accumulation windows 1 and 4. The exposed_ms/step metric is
// the per-step communication time rank 0 actually spent stalled — with
// overlap on it must sit strictly below the synchronous path's
// (asserted by TestOverlapHidesExposedCommOnCongestedLink; recorded
// here into BENCH_dist.json by `make bench-dist`).
func BenchmarkDistStepOverlap(b *testing.B) {
	for _, overlap := range []bool{false, true} {
		for _, accum := range []int{1, 4} {
			b.Run(fmt.Sprintf("overlap=%v/accum=%d", overlap, accum), func(b *testing.B) {
				// Inside the sub-benchmark: the testing framework pins
				// GOMAXPROCS per run (-cpu), so the comm-stream head
				// room must be claimed here, not in the parent.
				defer runtime.GOMAXPROCS(withCommProcs(8))
				cfg, _ := overlapBenchConfig(overlap, accum)
				cfg.MaxStepsPerEpoch = b.N
				ds := tinyDatasetSized(cfg.BatchSize*accum*(b.N+1), cfg.MAE.Encoder.ImageSize)
				b.ResetTimer()
				res, err := PretrainDistributed(cfg, ds)
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if res.Steps != b.N {
					b.Fatalf("ran %d steps for b.N=%d", res.Steps, b.N)
				}
				br := res.Breakdown("exec")
				b.ReportMetric(float64(res.Steps)/b.Elapsed().Seconds(), "steps/s")
				b.ReportMetric(1e3*br.ExposedStepSec(), "exposed_ms/step")
				b.ReportMetric(1e3*br.StepSec(), "wall_ms/step")
				b.ReportMetric(res.Traffic.Total(), "wireB/step")
			})
		}
	}
}

// modeledLoopCommSec sums the α–β model's time over the collectives
// DDP issues inside the timed training loop (gradient all-reduce plus
// the scalar loss average). Broadcast is excluded: under DDP it fires
// once for the initial parameter sync, before the WallSec clock starts.
func modeledLoopCommSec(s dist.Stats) float64 {
	return s.AllReduce.ModelTime + s.ReduceScatter.ModelTime + s.AllGather.ModelTime +
		s.Scalar.ModelTime
}

// BenchmarkDistStepStraggler measures the synchronous-lockstep cost of
// one slow rank: a 4-rank DDP step on a congested throttled link with
// the last rank's collectives skewed ×1 (baseline) and ×4. Every peer
// waits for the straggler, so wall_ms/step must sit at or above
// pred_lockstep_ms/step = skew × the α–β model's per-step collective
// time (asserted by TestStragglerLockstepCost; recorded here into
// BENCH_dist.json by `make bench-dist`).
func BenchmarkDistStepStraggler(b *testing.B) {
	const ranks = 4
	for _, skew := range []float64{1, 4} {
		b.Run(fmt.Sprintf("skew=%g", skew), func(b *testing.B) {
			cfg := tinyDistConfig(ranks, fsdp.DefaultDDP())
			cfg.Epochs = 1
			cfg.MaxStepsPerEpoch = b.N
			cfg.Throttle = 1
			cfg.Link = comm.Params{Bandwidth: 4e6, HopLat: 1e-6, Launch: 1e-5}
			if skew > 1 {
				cfg.ThrottleSkew = map[int]float64{ranks - 1: skew}
			}
			ds := tinyDataset(cfg.BatchSize * (b.N + 1))
			b.ResetTimer()
			res, err := PretrainDistributed(cfg, ds)
			if err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			if res.Steps != b.N {
				b.Fatalf("ran %d steps for b.N=%d", res.Steps, b.N)
			}
			steps := float64(res.Steps)
			b.ReportMetric(1e3*res.WallSec/steps, "wall_ms/step")
			b.ReportMetric(1e3*skew*modeledLoopCommSec(res.Comm)/steps, "pred_lockstep_ms/step")
		})
	}
}

// BenchmarkElasticRestart measures the executed fault-tolerance costs
// the fsdp.FaultModel prices: per-checkpoint capture time, per-failure
// restart (relaunch bookkeeping) and lost work, from a
// 4-rank hybrid run killed mid-epoch 3 and shrunk to 2 ranks. Recorded
// into BENCH_dist.json by `make bench-dist`.
func BenchmarkElasticRestart(b *testing.B) {
	plan := fsdp.BestPractice(fsdp.HybridShard, 2)
	base := tinyDistConfig(4, plan)
	base.Epochs = 4
	probe := base
	probe.StopAfterEpoch = 2
	p, err := PretrainDistributed(probe, tinyDataset(32))
	if err != nil {
		b.Fatal(err)
	}
	killAt := p.CollectiveCalls + p.CollectiveCalls/4
	var ckSec, rsSec, lostSec float64
	var cks int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ecfg := ElasticConfig{DistConfig: base, ShrinkTo: 2}
		ecfg.CheckpointEvery = 1
		ecfg.Fault = dist.FaultPlan{Rank: 1, Call: killAt}
		e, err := PretrainElastic(ecfg, tinyDataset(32))
		if err != nil {
			b.Fatal(err)
		}
		if e.Failures != 1 {
			b.Fatalf("expected one injected failure, got %d", e.Failures)
		}
		ckSec += e.CheckpointSec
		rsSec += e.RestartSec
		lostSec += e.LostWorkSec
		cks += e.Checkpoints
	}
	b.StopTimer()
	n := float64(b.N)
	b.ReportMetric(1e3*ckSec/float64(cks), "ckpt_ms")
	b.ReportMetric(1e3*rsSec/n, "restart_ms")
	b.ReportMetric(1e3*lostSec/n, "lostwork_ms")
}
