package main

import (
	"fmt"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/comm"
	"repro/internal/dist"
	"repro/internal/fsdp"
	"repro/internal/geodata"
	"repro/internal/mae"
	"repro/internal/train"
	"repro/internal/vit"
)

// tinyOptions is a whole command run small enough for milliseconds: a
// 2-layer encoder, the scale-1000 corpus, two epochs of two steps.
func tinyOptions(ranks int, prec train.Precision) options {
	enc := vit.Config{Name: "tiny", Width: 16, Depth: 2, MLP: 32, Heads: 2,
		PatchSize: 4, ImageSize: 12, Channels: 3}
	return options{
		mae: mae.Config{Encoder: enc,
			DecoderWidth: 8, DecoderDepth: 1, DecoderHeads: 2, MaskRatio: 0.75},
		scale: 1000, epochs: 2, steps: 2, batch: 8, lr: 0.02, workers: 2, seed: 1,
		ranks: ranks, plan: fsdp.BestPractice(fsdp.ShardGradOp, 0), prec: prec, accum: 1,
	}
}

// TestOutWritesResumableTrainState: what -out leaves on disk is the
// run's TrainState — the fp32 master and the Adam moments, bit for bit,
// under both precisions on one rank and two — not the working weights,
// which under bf16 are the master's rounding (the file once held those,
// with no optimizer state); and a longer schedule accepts it as Resume.
func TestOutWritesResumableTrainState(t *testing.T) {
	for _, prec := range []train.Precision{train.FP32, train.BF16} {
		for _, ranks := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/%d", prec, ranks), func(t *testing.T) {
				o := tinyOptions(ranks, prec)
				o.out = filepath.Join(t.TempDir(), "run.state")
				var log strings.Builder
				if err := run(o, &log); err != nil {
					t.Fatal(err)
				}
				wantTable := ranks > 1
				if got := strings.Contains(log.String(), "collective traffic"); got != wantTable {
					t.Errorf("comm table printed = %v on %d ranks:\n%s", got, ranks, log.String())
				}
				st, err := train.LoadTrainStateFile(o.out)
				if err != nil {
					t.Fatalf("-out does not load as a TrainState: %v", err)
				}

				suite := geodata.NewSuite(o.scale, 12, 3, o.seed)
				ref, err := train.PretrainDistributed(o.distConfig(), suite.Pretrain)
				if err != nil {
					t.Fatal(err)
				}
				for name, pair := range map[string][2][]float32{
					"Master": {st.Master, ref.State.Master},
					"OptM":   {st.OptM, ref.State.OptM},
					"OptV":   {st.OptV, ref.State.OptV},
				} {
					if len(pair[0]) != len(pair[1]) || len(pair[0]) == 0 {
						t.Fatalf("%s: file holds %d values, the run's state %d", name, len(pair[0]), len(pair[1]))
					}
					for i := range pair[0] {
						if math.Float32bits(pair[0][i]) != math.Float32bits(pair[1][i]) {
							t.Fatalf("%s[%d] in the file differs from DistResult.State", name, i)
						}
					}
				}
				if prec == train.BF16 {
					lowBits := 0
					for _, v := range st.Master {
						if math.Float32bits(v)&0xFFFF != 0 {
							lowBits++
						}
					}
					if lowBits == 0 {
						t.Error("every saved master value is bf16-representable: the file holds the working weights, not the fp32 master")
					}
				}

				longer := o.distConfig()
				longer.Epochs = o.epochs + 1
				longer.Resume = st
				cont, err := train.PretrainDistributed(longer, suite.Pretrain)
				if err != nil {
					t.Fatalf("a longer schedule refuses the file as Resume: %v", err)
				}
				if cont.Steps != o.steps {
					t.Errorf("resumed run took %d steps, want the one remaining epoch's %d", cont.Steps, o.steps)
				}
			})
		}
	}
}

// TestParsePlan pins the full accepted -strategy vocabulary and the
// fail-fast behaviour: every rejection names the complete set, so a
// typo can never silently train with a default plan.
func TestParsePlan(t *testing.T) {
	cases := []struct {
		in       string
		strategy fsdp.Plan
	}{
		{"ddp", fsdp.DefaultDDP()},
		{"zero1", fsdp.BestPractice(fsdp.ShardGradOp, 0)},
		{"full", fsdp.BestPractice(fsdp.FullShard, 0)},
		{"hybrid:2", fsdp.BestPractice(fsdp.HybridShard, 2)},
		{"hybrid:8", fsdp.BestPractice(fsdp.HybridShard, 8)},
	}
	for _, c := range cases {
		got, err := parsePlan(c.in)
		if err != nil {
			t.Errorf("parsePlan(%q): %v", c.in, err)
			continue
		}
		if got != c.strategy {
			t.Errorf("parsePlan(%q) = %+v, want %+v", c.in, got, c.strategy)
		}
	}
	for _, bad := range []string{"", "DDP", "zero2", "fsdp", "hybrid", "hybrid:", "hybrid:0", "hybrid:-2", "hybrid:x"} {
		_, err := parsePlan(bad)
		if err == nil {
			t.Errorf("parsePlan(%q): expected an error", bad)
			continue
		}
		if !strings.Contains(err.Error(), acceptedStrategies) {
			t.Errorf("parsePlan(%q) error %q does not name the accepted set %q", bad, err, acceptedStrategies)
		}
	}
}

// TestCommTableGolden runs a deterministic 4-rank HYBRID_2GPUs training
// and pins writeComm's report byte for byte: the measured counters, the
// α–β model's pricing on a fixed link, and the per-step comparison
// against the fsdp simulator. Any drift between the executed
// collectives and the simulator's accounting — or any silent format
// change in the report — fails here.
func TestCommTableGolden(t *testing.T) {
	enc := vit.Config{Name: "tiny", Width: 16, Depth: 2, MLP: 32, Heads: 2,
		PatchSize: 4, ImageSize: 12, Channels: 3}
	cfg := train.DefaultPretrain(mae.Config{Encoder: enc,
		DecoderWidth: 8, DecoderDepth: 1, DecoderHeads: 2, MaskRatio: 0.75})
	cfg.Epochs = 1
	cfg.MaxStepsPerEpoch = 2
	cfg.BatchSize = 8
	cfg.Workers = 2
	cfg.Seed = 1
	plan, err := parsePlan("hybrid:2")
	if err != nil {
		t.Fatal(err)
	}
	dcfg := train.DistConfig{
		PretrainConfig: cfg,
		Ranks:          4,
		Plan:           plan,
		// A fixed link so the modeled times are independent of the
		// hw.Frontier defaults.
		Options: dist.Options{Link: comm.Params{Bandwidth: 50e9, HopLat: 1e-6, Launch: 2e-5}},
	}
	suite := geodata.NewSuite(1000, 12, 3, 1)
	res, err := train.PretrainDistributed(dcfg, suite.Pretrain)
	if err != nil {
		t.Fatal(err)
	}

	var b strings.Builder
	writeComm(&b, res)
	const golden = `collective traffic (4 ranks, 2 steps):
  op                 calls  sent MiB/rank      model MiB   model time
  broadcast              1           0.03           0.03        0.0ms
  all-reduce             2           0.03           0.03        0.0ms
  reduce-scatter         2           0.03           0.03        0.0ms
  all-gather             4           0.05           0.05        0.1ms
  per-step bytes vs fsdp simulator: AR 13456/13456  RS 13456/13456  AG 26912/26912
`
	if got := b.String(); got != golden {
		t.Errorf("comm table drifted from golden.\n--- got ---\n%s--- want ---\n%s", got, golden)
	}
}

// TestParsePrecision pins the -precision vocabulary and its fail-fast
// behaviour.
func TestParsePrecision(t *testing.T) {
	if p, err := parsePrecision("fp32"); err != nil || p != train.FP32 {
		t.Errorf("parsePrecision(fp32) = %v, %v", p, err)
	}
	if p, err := parsePrecision("bf16"); err != nil || p != train.BF16 {
		t.Errorf("parsePrecision(bf16) = %v, %v", p, err)
	}
	for _, bad := range []string{"", "FP32", "bf-16", "fp16", "half"} {
		_, err := parsePrecision(bad)
		if err == nil {
			t.Errorf("parsePrecision(%q): expected an error", bad)
			continue
		}
		if !strings.Contains(err.Error(), acceptedPrecisions) {
			t.Errorf("parsePrecision(%q) error %q does not name the accepted set", bad, err)
		}
	}
}

// rejectCase is one flag set run must refuse: set edits the tiny
// options, want is what the error must name.
type rejectCase struct {
	name string
	set  func(*options)
	want string
}

// wantRejected runs each case and checks it fails by name before the
// command prints anything (not after both banners, which once reported
// a negative -accum as "accum 1").
func wantRejected(t *testing.T, cases []rejectCase) {
	t.Helper()
	for _, c := range cases {
		o := tinyOptions(1, train.FP32)
		c.set(&o)
		var b strings.Builder
		if err := run(o, &b); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want an error naming %q", c.name, err, c.want)
		}
		if b.Len() != 0 {
			t.Errorf("%s: output written before failing:\n%s", c.name, b.String())
		}
	}
}

// TestCheckWorld pins the -ranks/-batch fail-fast: a non-positive world
// and an uneven batch split are rejected by name before anything divides
// by the rank count or quietly trains single-rank, and the worlds that
// split the batch evenly resolve.
func TestCheckWorld(t *testing.T) {
	for _, ok := range []struct{ ranks, batch int }{{1, 16}, {4, 16}, {3, 6}, {16, 16}} {
		o := tinyOptions(ok.ranks, train.FP32)
		o.batch = ok.batch
		if _, err := o.distConfig().Resolve(); err != nil {
			t.Errorf("-ranks %d -batch %d: %v", ok.ranks, ok.batch, err)
		}
	}
	wantRejected(t, []rejectCase{
		{"ranks 0", func(o *options) { o.ranks = 0 }, "non-positive rank count 0"},
		{"ranks -3", func(o *options) { o.ranks = -3 }, "non-positive rank count -3"},
		{"uneven batch", func(o *options) { o.ranks = 3 }, "global batch 8 not divisible by 3 ranks"},
		{"world above batch", func(o *options) { o.ranks = 16 }, "global batch 8 not divisible by 16 ranks"},
	})
}

// TestRunRejectsBadScale: a -scale below 1 fails by name before any
// output, instead of training on the full corpus as -scale 1 would.
func TestRunRejectsBadScale(t *testing.T) {
	wantRejected(t, []rejectCase{
		{"scale 0", func(o *options) { o.scale = 0 }, "bad -scale 0"},
		{"scale -2", func(o *options) { o.scale = -2 }, "bad -scale -2"},
	})
}

// TestRunRejectsBadFlags: the rest of the flag sets no run can execute —
// a negative worker count or accumulation window, no epochs, a negative
// step cap — fail by name before the command prints anything.
func TestRunRejectsBadFlags(t *testing.T) {
	wantRejected(t, []rejectCase{
		{"workers -3", func(o *options) { o.workers = -3 }, "negative Workers -3"},
		{"accum -2", func(o *options) { o.accum = -2 }, "negative AccumSteps"},
		{"epochs 0", func(o *options) { o.epochs = 0 }, "non-positive batch size or epochs"},
		{"steps -1", func(o *options) { o.steps = -1 }, "negative MaxStepsPerEpoch -1"},
	})
}

// TestCommTableGoldenBF16 is the bf16 twin of TestCommTableGolden: the
// identical 4-rank HYBRID_2GPUs run under -precision bf16 must report
// exactly half the per-step wire bytes on every gradient/parameter
// collective — measured, modeled and simulated alike.
func TestCommTableGoldenBF16(t *testing.T) {
	enc := vit.Config{Name: "tiny", Width: 16, Depth: 2, MLP: 32, Heads: 2,
		PatchSize: 4, ImageSize: 12, Channels: 3}
	cfg := train.DefaultPretrain(mae.Config{Encoder: enc,
		DecoderWidth: 8, DecoderDepth: 1, DecoderHeads: 2, MaskRatio: 0.75})
	cfg.Epochs = 1
	cfg.MaxStepsPerEpoch = 2
	cfg.BatchSize = 8
	cfg.Workers = 2
	cfg.Seed = 1
	plan, err := parsePlan("hybrid:2")
	if err != nil {
		t.Fatal(err)
	}
	prec, err := parsePrecision("bf16")
	if err != nil {
		t.Fatal(err)
	}
	dcfg := train.DistConfig{
		PretrainConfig: cfg,
		Ranks:          4,
		Plan:           plan,
		Precision:      prec,
		Options:        dist.Options{Link: comm.Params{Bandwidth: 50e9, HopLat: 1e-6, Launch: 2e-5}},
	}
	suite := geodata.NewSuite(1000, 12, 3, 1)
	res, err := train.PretrainDistributed(dcfg, suite.Pretrain)
	if err != nil {
		t.Fatal(err)
	}

	var b strings.Builder
	writeComm(&b, res)
	const golden = `collective traffic (4 ranks, 2 steps):
  op                 calls  sent MiB/rank      model MiB   model time
  broadcast              1           0.03           0.03        0.0ms
  all-reduce             2           0.01           0.01        0.0ms
  reduce-scatter         2           0.01           0.01        0.0ms
  all-gather             4           0.03           0.03        0.1ms
  per-step bytes vs fsdp simulator: AR 6728/6728  RS 6728/6728  AG 13456/13456
`
	if got := b.String(); got != golden {
		t.Errorf("comm table drifted from golden.\n--- got ---\n%s--- want ---\n%s", got, golden)
	}
}
