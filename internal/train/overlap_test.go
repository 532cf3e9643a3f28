package train

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"testing"

	"repro/internal/comm"
	"repro/internal/dist"
	"repro/internal/fsdp"
	"repro/internal/geodata"
	"repro/internal/mae"
	"repro/internal/opt"
	"repro/internal/vit"
)

// TestMultiBucketBitwiseAndTraffic forces the flat gradient into
// several wire buckets (the layout under which sharded ownership
// becomes chunk-of-every-bucket) and checks that (a) overlap on/off
// stays bitwise identical, (b) replicas stay bit-identical, (c) bucket
// splitting leaves the per-step ring volumes exactly at
// fsdp.TrafficPerStep — splitting a ring collective changes calls, not
// bytes — and (d) the collective call counts scale with the bucket
// count.
func TestMultiBucketBitwiseAndTraffic(t *testing.T) {
	plans := []fsdp.Plan{
		fsdp.DefaultDDP(),
		fsdp.BestPractice(fsdp.ShardGradOp, 0),
		fsdp.BestPractice(fsdp.FullShard, 0),
		fsdp.BestPractice(fsdp.HybridShard, 2),
	}
	for _, plan := range plans {
		for _, prec := range []Precision{FP32, BF16} {
			t.Run(fmt.Sprintf("%s/%s", plan.Name(), prec), func(t *testing.T) {
				run := func(overlap bool) *DistResult {
					cfg := tinyDistConfig(4, plan)
					cfg.Epochs = 2
					cfg.Precision = prec
					cfg.Overlap = overlap
					// ~6 KiB of fp32 gradient → several buckets.
					cfg.BucketBytes = 1024
					res, err := PretrainDistributed(cfg, tinyDataset(32))
					if err != nil {
						t.Fatal(err)
					}
					return res
				}
				off := run(false)
				on := run(true)
				for i := range off.LossCurve.Y {
					if math.Float64bits(on.LossCurve.Y[i]) != math.Float64bits(off.LossCurve.Y[i]) {
						t.Fatalf("overlap changes the bucketed loss at step %d", i)
					}
				}
				dim := opt.FlatDim(off.Model.Params())
				a := make([]float32, dim)
				b := make([]float32, dim)
				opt.PackValues(a, off.Model.Params())
				for rank := 0; rank < 4; rank++ {
					opt.PackValues(b, on.replicas[rank].Params())
					for j := range a {
						if math.Float32bits(a[j]) != math.Float32bits(b[j]) {
							t.Fatalf("rank %d parameter %d differs between overlap on (bucketed) and off", rank, j)
						}
					}
				}
				steps := float64(on.Steps)
				if on.Comm.AllReduce.MeasuredWireBytes != on.Traffic.AllReduceBytes*steps ||
					on.Comm.ReduceScatter.MeasuredWireBytes != on.Traffic.ReduceScatterBytes*steps ||
					on.Comm.AllGather.MeasuredWireBytes != on.Traffic.AllGatherBytes*steps {
					t.Errorf("bucket splitting changed the per-step wire volume: %+v vs %+v × %v",
						on.Comm, on.Traffic, steps)
				}
				// Bucketing multiplies calls (4-rank padded space at
				// 1 KiB wire buckets → >1 bucket for this model).
				perStep := on.Comm.AllGather.Calls + on.Comm.ReduceScatter.Calls + on.Comm.AllReduce.Calls
				if perStep <= on.Steps {
					t.Errorf("expected multiple collective calls per step, got %d over %d steps", perStep, on.Steps)
				}
			})
		}
	}
}

// TestAccumWindowScalerOnceAndUniformTraffic pins the loss-scaler ×
// accumulation interaction: an overflow injected into the accumulation
// window (Init beyond float32 range overflows the window's scaled
// gradient) must be detected once per *optimizer step* — one skip, one
// backoff, one halving per window, never per micro-step — and the
// skipped windows still run the full collective schedule, so measured
// bytes stay exactly uniform across the skip.
func TestAccumWindowScalerOnceAndUniformTraffic(t *testing.T) {
	for _, plan := range []fsdp.Plan{fsdp.DefaultDDP(), fsdp.BestPractice(fsdp.HybridShard, 2)} {
		t.Run(plan.Name(), func(t *testing.T) {
			cfg := tinyDistConfig(4, plan)
			cfg.Epochs = 4
			cfg.Precision = BF16
			cfg.AccumSteps = 2
			cfg.Overlap = true
			cfg.LossScale.Init = 1e40 // float32(1e40·g) = ±Inf mid-window
			res, err := PretrainDistributed(cfg, tinyDataset(64))
			if err != nil {
				t.Fatal(err)
			}
			if res.SkippedSteps == 0 {
				t.Fatal("no skip exercised")
			}
			if res.SkippedSteps >= res.Steps {
				t.Fatalf("every window skipped (%d of %d)", res.SkippedSteps, res.Steps)
			}
			// Once per window: every skip is one backoff, and the final
			// scale is exactly Init halved once per skipped window. A
			// per-micro-step scaler would halve AccumSteps times per
			// window and double-count skips.
			if res.ScaleBackoffs != res.SkippedSteps {
				t.Fatalf("backoffs %d != skipped windows %d", res.ScaleBackoffs, res.SkippedSteps)
			}
			want := cfg.LossScale.Init * math.Pow(0.5, float64(res.ScaleBackoffs))
			if res.FinalLossScale != want {
				t.Fatalf("final scale %v, want Init × 0.5^%d = %v (scaler moved more than once per window?)",
					res.FinalLossScale, res.ScaleBackoffs, want)
			}
			// Uniform traffic across skipped and trained windows.
			steps := float64(res.Steps)
			if res.Comm.AllReduce.MeasuredWireBytes != res.Traffic.AllReduceBytes*steps ||
				res.Comm.ReduceScatter.MeasuredWireBytes != res.Traffic.ReduceScatterBytes*steps ||
				res.Comm.AllGather.MeasuredWireBytes != res.Traffic.AllGatherBytes*steps {
				t.Errorf("traffic not uniform across skips: %+v vs %+v × %v", res.Comm, res.Traffic, steps)
			}
			// The loss curve still reports every optimizer step.
			if len(res.LossCurve.Y) != res.Steps {
				t.Errorf("loss curve has %d points for %d steps", len(res.LossCurve.Y), res.Steps)
			}
		})
	}
}

// overlapBenchConfig is an 8-rank DDP run on a deliberately congested
// link (Throttle realizes the α–β time as executed delay): DDP's
// gradient all-reduces launch per bucket during backward, so — unlike
// the sharded schedules, whose parameter all-gathers gate the next
// forward and cannot hide — its entire gradient traffic is
// overlappable, the cleanest demonstration of the hidden-latency win.
// Shared between the acceptance test below and
// BenchmarkDistStepOverlap.
func overlapBenchConfig(overlap bool, accum int) (DistConfig, int) {
	enc := vit.Config{Name: "mid", Width: 64, Depth: 6, MLP: 256, Heads: 4,
		PatchSize: 4, ImageSize: 16, Channels: 3}
	m := mae.Config{Encoder: enc, DecoderWidth: 32, DecoderDepth: 2, DecoderHeads: 2, MaskRatio: 0.75}
	cfg := DistConfig{
		PretrainConfig: PretrainConfig{
			MAE: m, BatchSize: 64, Epochs: 1, BaseLR: 0.02, WeightDecay: 0.05,
			WarmupEpochs: 1, ClipNorm: 5, Workers: 2, Seed: 3, MaxStepsPerEpoch: 3,
		},
		Ranks:       8,
		Plan:        fsdp.DefaultDDP(),
		Overlap:     overlap,
		AccumSteps:  accum,
		BucketBytes: 64 << 10, // several buckets over the ~340k-element flat space
		// A link slow enough (vs the model's per-step backward) that
		// collective latency is worth hiding, but hideable within the
		// backward compute; Throttle executes the modeled time.
		Options: dist.Options{Link: comm.Params{Bandwidth: 400e6, HopLat: 5e-6, Launch: 2e-5}, Throttle: 1},
	}
	return cfg, 16 * 4 // dataset images per step headroom
}

// TestOverlapHidesExposedCommOnCongestedLink is the executed form of
// the paper's overlap claim, and this PR's acceptance bar: on a
// congested simulated link, the 8-rank overlapped run must show
// strictly lower exposed-communication time than the synchronous run —
// the same bytes moved, the same bitwise trajectory, less of the step
// spent stalled on the wire. The trajectory and byte equalities are
// hermetic and always run; the exposed-time comparisons race 8 ranks
// against the OS scheduler, so like the calib and serve timing suites
// they are not part of tier-1: set OVERLAP_VALIDATE=1 to run them (CI's
// calibrate job does).
func TestOverlapHidesExposedCommOnCongestedLink(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test (throttled link)")
	}
	defer runtime.GOMAXPROCS(withCommProcs(8))
	run := func(overlap bool) *DistResult {
		cfg, perStep := overlapBenchConfig(overlap, 1)
		res, err := PretrainDistributed(cfg, tinyDatasetSized(perStep*4, cfg.MAE.Encoder.ImageSize))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	off := run(false)
	on := run(true)
	// Same trajectory, same bytes — only the schedule differs.
	for i := range off.LossCurve.Y {
		if math.Float64bits(on.LossCurve.Y[i]) != math.Float64bits(off.LossCurve.Y[i]) {
			t.Fatalf("overlap changed the loss at step %d", i)
		}
	}
	if on.Comm.ReduceScatter.MeasuredWireBytes != off.Comm.ReduceScatter.MeasuredWireBytes ||
		on.Comm.AllGather.MeasuredWireBytes != off.Comm.AllGather.MeasuredWireBytes {
		t.Fatalf("overlap changed the wire bytes")
	}
	if os.Getenv("OVERLAP_VALIDATE") == "" {
		t.Skip("wall-clock assertions; set OVERLAP_VALIDATE=1 to run")
	}
	if off.ExposedCommSec <= 0 {
		t.Fatalf("synchronous run exposed no communication (%.3fs) — throttle inert?", off.ExposedCommSec)
	}
	bOff := off.Breakdown("overlap=off")
	bOn := on.Breakdown("overlap=on")
	t.Logf("%s", bOff)
	t.Logf("%s", bOn)
	if !(on.ExposedCommSec < off.ExposedCommSec) {
		t.Fatalf("overlap did not hide latency: exposed %.3fs (on) vs %.3fs (off)",
			on.ExposedCommSec, off.ExposedCommSec)
	}
	// The win must be substantial, not jitter: the gradient reductions
	// launch early enough in backward to hide most of their cost.
	if on.ExposedCommSec > 0.8*off.ExposedCommSec {
		t.Errorf("overlap hides too little: exposed %.3fs (on) vs %.3fs (off)",
			on.ExposedCommSec, off.ExposedCommSec)
	}
	if bOn.ExposedFrac() >= bOff.ExposedFrac() {
		t.Errorf("exposed fraction did not drop: %.2f vs %.2f", bOn.ExposedFrac(), bOff.ExposedFrac())
	}
}

// TestExposedCommCoversThrottledWaits holds the exposed-communication
// accounting to a bound that holds on any host. With Overlap off every
// in-loop collective is waited where it is issued, and under Throttle
// each one sleeps at least Throttle × its modeled time before its wait
// returns, so rank 0's ExposedCommSec is at least Throttle × the
// modeled time of every collective but the init broadcast, the one
// outside the loop. The link is slow enough that these sleeps dwarf
// the in-process ring itself: a wait or a scalar all-reduce left
// untimed drops the exposed time below the bound.
func TestExposedCommCoversThrottledWaits(t *testing.T) {
	cfg := DistConfig{
		PretrainConfig: PretrainConfig{MAE: tinyMAE(), BatchSize: 8, Epochs: 1, BaseLR: 0.02,
			ClipNorm: 1, Workers: 1, Seed: 1, MaxStepsPerEpoch: 4},
		Ranks:   2,
		Plan:    fsdp.DefaultDDP(),
		Options: dist.Options{Link: comm.Params{Bandwidth: 100e6, HopLat: 1e-4, Launch: 1e-3}, Throttle: 1},
	}
	res, err := PretrainDistributed(cfg, tinyDataset(32))
	if err != nil {
		t.Fatal(err)
	}
	c := res.Comm
	if c.AllReduce.Calls == 0 || c.Scalar.Calls == 0 {
		t.Fatalf("no gradient or scalar all-reduce ran: %+v", c)
	}
	modeled := c.AllReduce.ModelTime + c.ReduceScatter.ModelTime + c.AllGather.ModelTime + c.Scalar.ModelTime
	// Each sleep is its modeled time truncated to whole nanoseconds.
	calls := c.AllReduce.Calls + c.ReduceScatter.Calls + c.AllGather.Calls + c.Scalar.Calls
	if want := cfg.Throttle*modeled - float64(calls)*1e-9; res.ExposedCommSec < want {
		t.Errorf("ExposedCommSec %.6fs below the %.6fs the %d throttled in-loop collectives slept",
			res.ExposedCommSec, want, calls)
	}
	// ComputeSec is WallSec − ExposedCommSec: equal up to the rounding
	// of that one subtraction.
	if d := res.ComputeSec + res.ExposedCommSec - res.WallSec; math.Abs(d) > 1e-12*res.WallSec {
		t.Errorf("ComputeSec %v + ExposedCommSec %v != WallSec %v", res.ComputeSec, res.ExposedCommSec, res.WallSec)
	}
}

// tinyDatasetSized is tinyDataset at a configurable image size (the
// overlap bench model uses 16×16 scenes).
func tinyDatasetSized(count, imageSize int) *geodata.Dataset {
	gen := geodata.NewSceneGen(4, imageSize, 3, 11)
	return &geodata.Dataset{Name: "tiny", Gen: gen, TrainCount: count, TestCount: count / 2}
}

// withCommProcs raises GOMAXPROCS so each modeled GPU's comm "stream"
// (the async queue worker) can run beside the rank's compute, as the
// DMA/RCCL engines do beside the compute units on a real node — on a
// box with fewer cores than ranks, a compute-bound rank goroutine
// would otherwise serialize the throttled collective chain behind its
// own backward and mask the overlap. Returns the previous setting for
// deferred restore.
func withCommProcs(ranks int) int {
	want := 2 * ranks
	if cur := runtime.GOMAXPROCS(0); cur >= want {
		return cur
	}
	return runtime.GOMAXPROCS(want)
}
