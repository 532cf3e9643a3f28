// Command pretrain runs MAE self-supervised pretraining of an analog
// ViT on the procedural MillionAID corpus. Every run is
// PretrainDistributed: -ranks 1 (the default) is the one-rank world
// whose collectives move nothing, and -ranks N executes real N-rank
// data-parallel training over in-process ring collectives
// (internal/dist) and reports the measured communication next to the
// α–β model's prediction for the same calls. -out writes the run's
// resumable TrainState — fp32 master weights, Adam moments and schedule
// point under every precision — the one checkpoint format cmd/serve
// -ckpt, cmd/linprobe -checkpoint and train.DistConfig.Resume read.
//
// Usage:
//
//	pretrain -model ViT-1B -image 32 -patch 8 -epochs 20 -out vit1b.ckpt
//	pretrain -model ViT-Base -ranks 4 -strategy zero1 -epochs 4
//	pretrain -model ViT-Base -ranks 8 -strategy hybrid:4 -epochs 4
//	pretrain -model ViT-Base -ranks 4 -strategy zero1 -precision bf16
//	pretrain -model ViT-Base -ranks 4 -overlap -accum 4
//
// -batch is the global batch size; with -ranks N each rank trains
// batch/N samples per step. -precision selects fp32 or the executed
// bf16 mixed-precision mode (bf16 wire payloads at half the bytes,
// fp32 master weights, dynamic loss scaling). -overlap launches each
// gradient bucket's collective the moment backward finalizes it
// (bitwise identical to the synchronous schedule; the report's
// exposed-comm line shows what the overlap hid), and -accum N
// accumulates N micro-batches per optimizer step with collectives
// firing once per window. -strategy selects the synchronization
// schedule — the paper's full Section III-C matrix:
//
//	ddp       bucketed gradient all-reduce, replicated optimizer
//	zero1     reduce-scattered gradients, rank-sharded AdamW state,
//	          all-gathered parameters (FSDP's SHARD_GRAD_OP)
//	full      zero1 plus parameter resharding after forward with a
//	          backward re-gather (FSDP's FULL_SHARD)
//	hybrid:k  FULL_SHARD inside k-rank shard groups, gradient-shard
//	          all-reduce across the world/k replica groups
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/calib"
	"repro/internal/comm"
	"repro/internal/dist"
	"repro/internal/fsdp"
	"repro/internal/geodata"
	"repro/internal/mae"
	"repro/internal/train"
	"repro/internal/vit"
)

// options is the parsed command line: flags that name something
// (-model, -strategy, -precision) are resolved in main so a typo fails
// before anything runs.
type options struct {
	mae     mae.Config
	scale   int
	epochs  int
	steps   int
	batch   int
	lr      float64
	workers int
	seed    uint64
	ranks   int
	plan    fsdp.Plan
	prec    train.Precision
	overlap bool
	accum   int
	profile string
	out     string
}

func main() {
	model := flag.String("model", "ViT-Base", "Table I model whose analog to train (ViT-Base, ViT-Huge, ViT-1B, ViT-3B)")
	imageSize := flag.Int("image", 32, "image size of the procedural scenes")
	patchSize := flag.Int("patch", 8, "ViT patch size")
	channels := flag.Int("channels", 3, "image channels")
	scale := flag.Int("scale", 10, "Table II sample-count divisor for the corpus")
	epochs := flag.Int("epochs", 20, "pretraining epochs")
	steps := flag.Int("steps", 40, "max steps per epoch (0 = full corpus)")
	batch := flag.Int("batch", 16, "global batch size (split across ranks)")
	lr := flag.Float64("lr", 0.02, "base learning rate (linear batch scaling applies)")
	workers := flag.Int("workers", 4, "data loader workers per rank")
	seed := flag.Uint64("seed", 1, "master seed")
	ranks := flag.Int("ranks", 1, "data-parallel world size (in-process ranks)")
	strategy := flag.String("strategy", "ddp", "gradient sync across -ranks: "+acceptedStrategies)
	precision := flag.String("precision", "fp32", "numeric mode: "+acceptedPrecisions)
	overlap := flag.Bool("overlap", false, "launch gradient buckets during backward (communication-computation overlap; bitwise identical to the synchronous path)")
	accum := flag.Int("accum", 1, "gradient-accumulation micro-steps per optimizer step (effective batch = -batch × -accum)")
	profile := flag.String("profile", "", "hardware profile (hwprofile.json from cmd/calibrate); prices executed collectives with this host's measured α–β link instead of the default")
	out := flag.String("out", "", "path to write the resumable TrainState to (optional): fp32 master weights and Adam moments, what cmd/serve -ckpt and cmd/linprobe -checkpoint read")
	flag.Parse()

	enc, err := vit.Analog(*model, *imageSize, *patchSize, *channels)
	if err != nil {
		fatal(err)
	}
	plan, err := parsePlan(*strategy)
	if err != nil {
		fatal(err)
	}
	prec, err := parsePrecision(*precision)
	if err != nil {
		fatal(err)
	}
	o := options{
		mae: mae.Default(enc), scale: *scale, epochs: *epochs, steps: *steps,
		batch: *batch, lr: *lr, workers: *workers, seed: *seed,
		ranks: *ranks, plan: plan, prec: prec, overlap: *overlap, accum: *accum,
		profile: *profile, out: *out,
	}
	if err := run(o, os.Stdout); err != nil {
		fatal(err)
	}
}

// distConfig is the one training configuration the options describe:
// every run, a single rank included, is PretrainDistributed's.
func (o options) distConfig() train.DistConfig {
	cfg := train.DefaultPretrain(o.mae)
	cfg.Epochs = o.epochs
	cfg.MaxStepsPerEpoch = o.steps
	cfg.BatchSize = o.batch
	cfg.BaseLR = o.lr
	cfg.Workers = o.workers
	cfg.Seed = o.seed
	return train.DistConfig{PretrainConfig: cfg, Ranks: o.ranks, Plan: o.plan,
		Precision: o.prec, Overlap: o.overlap, AccumSteps: o.accum}
}

// run trains and reports to w (factored out so tests can drive the
// command and read what -out wrote).
func run(o options, w io.Writer) error {
	if o.scale < 1 {
		return fmt.Errorf("bad -scale %d (want at least 1)", o.scale)
	}
	cfg := o.distConfig()
	if _, err := cfg.Resolve(); err != nil {
		return err
	}
	cfg.Log = w
	enc := o.mae.Encoder
	suite := geodata.NewSuite(o.scale, enc.ImageSize, enc.Channels, o.seed)
	if o.profile != "" {
		link, err := calibratedLink(o.profile, o.prec)
		if err != nil {
			return err
		}
		cfg.Link = link
		fmt.Fprintf(w, "calibrated link: %.1f MiB/s, launch %.1fµs (%s)\n",
			link.Bandwidth/(1<<20), link.Launch*1e6, o.profile)
	}

	fmt.Fprintf(w, "pretraining %s (%d parameters) on %s (%d images)\n",
		enc.Name, enc.EncoderParams(), suite.Pretrain.Name, suite.Pretrain.TrainCount)
	fmt.Fprintf(w, "executing %d ranks, %s, %s, local batch %d, accum %d, overlap %v\n",
		o.ranks, o.plan.Name(), o.prec, o.batch/o.ranks, max(o.accum, 1), o.overlap)
	res, err := train.PretrainDistributed(cfg, suite.Pretrain)
	if err != nil {
		return err
	}
	// A one-rank world's collectives are no-ops: there is no traffic to
	// tabulate and no exposed communication to decompose.
	if c := res.Comm; c.Broadcast.MeasuredWireBytes+c.AllReduce.MeasuredWireBytes+
		c.ReduceScatter.MeasuredWireBytes+c.AllGather.MeasuredWireBytes > 0 {
		writeComm(w, res)
		fmt.Fprintln(w, res.Breakdown(o.plan.Name()))
	}
	fmt.Fprintf(w, "done: %d steps, final loss %.4f, %.1f images/s\n",
		res.Steps, res.LossCurve.Last(), res.ImagesPerSec)

	if o.out != "" {
		if err := train.SaveTrainStateFile(o.out, res.State); err != nil {
			return err
		}
		fmt.Fprintf(w, "train state written to %s (step %d)\n", o.out, res.State.Step)
	}
	return nil
}

// acceptedStrategies is the full -strategy vocabulary; parse errors
// quote it so a typo never silently falls back to a default.
const acceptedStrategies = "ddp | zero1 | full | hybrid:k"

// acceptedPrecisions is the full -precision vocabulary.
const acceptedPrecisions = "fp32 | bf16"

// parsePrecision maps a -precision spelling onto its executed mode.
func parsePrecision(s string) (train.Precision, error) {
	switch s {
	case "fp32":
		return train.FP32, nil
	case "bf16":
		return train.BF16, nil
	default:
		return train.FP32, fmt.Errorf("unknown -precision %q (want %s)", s, acceptedPrecisions)
	}
}

// parsePlan maps a -strategy spelling onto its fsdp plan.
func parsePlan(s string) (fsdp.Plan, error) {
	switch {
	case s == "ddp":
		return fsdp.DefaultDDP(), nil
	case s == "zero1":
		return fsdp.BestPractice(fsdp.ShardGradOp, 0), nil
	case s == "full":
		return fsdp.BestPractice(fsdp.FullShard, 0), nil
	case strings.HasPrefix(s, "hybrid:"):
		k, err := strconv.Atoi(strings.TrimPrefix(s, "hybrid:"))
		if err != nil || k < 1 {
			return fsdp.Plan{}, fmt.Errorf("bad hybrid group in -strategy %q (want %s)", s, acceptedStrategies)
		}
		return fsdp.BestPractice(fsdp.HybridShard, k), nil
	default:
		return fsdp.Plan{}, fmt.Errorf("unknown -strategy %q (want %s)", s, acceptedStrategies)
	}
}

// calibratedLink loads a hardware profile and selects the pooled α–β
// link for the run's wire dtype, so the report's "model" columns price
// collectives with this host's measurement instead of the default.
func calibratedLink(path string, prec train.Precision) (comm.Params, error) {
	p, err := calib.LoadProfileFile(path)
	if err != nil {
		return comm.Params{}, err
	}
	dtype := "fp32"
	if prec == train.BF16 {
		dtype = "bf16"
	}
	return p.LinkParams(dtype)
}

// writeComm reports each collective's executed traffic next to the α–β
// model's accounting, plus the fsdp simulator's per-step prediction —
// the measured-vs-modeled table a golden test pins so the report cannot
// silently drift.
func writeComm(w io.Writer, res *train.DistResult) {
	steps := float64(res.Steps)
	fmt.Fprintf(w, "collective traffic (%d ranks, %d steps):\n", res.Ranks, res.Steps)
	fmt.Fprintf(w, "  %-15s %8s %14s %14s %12s\n", "op", "calls", "sent MiB/rank", "model MiB", "model time")
	rows := []struct {
		name string
		s    dist.OpStats
	}{
		{"broadcast", res.Comm.Broadcast},
		{"all-reduce", res.Comm.AllReduce},
		{"reduce-scatter", res.Comm.ReduceScatter},
		{"all-gather", res.Comm.AllGather},
	}
	for _, r := range rows {
		if r.s.Calls == 0 {
			continue
		}
		fmt.Fprintf(w, "  %-15s %8d %14.2f %14.2f %10.1fms\n", r.name, r.s.Calls,
			r.s.MeasuredWireBytes/(1<<20), r.s.ModelWireBytes/(1<<20), r.s.ModelTime*1e3)
	}
	if steps > 0 {
		fmt.Fprintf(w, "  per-step bytes vs fsdp simulator: AR %.0f/%.0f  RS %.0f/%.0f  AG %.0f/%.0f\n",
			res.Comm.AllReduce.MeasuredWireBytes/steps, res.Traffic.AllReduceBytes,
			res.Comm.ReduceScatter.MeasuredWireBytes/steps, res.Traffic.ReduceScatterBytes,
			res.Comm.AllGather.MeasuredWireBytes/steps, res.Traffic.AllGatherBytes)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pretrain:", err)
	os.Exit(1)
}
