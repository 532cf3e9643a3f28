package main

import (
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/geodata"
	"repro/internal/mae"
	"repro/internal/train"
	"repro/internal/vit"
)

// tinyProbeOptions is a whole probe small enough for milliseconds: a
// 2-layer encoder over the scale-10 UCM analog (105 test images, so the
// accuracies the report prints have some resolution), four epochs.
func tinyProbeOptions() options {
	enc := vit.Config{Name: "tiny", Width: 16, Depth: 2, MLP: 32, Heads: 2,
		PatchSize: 4, ImageSize: 12, Channels: 3}
	return options{
		mae: mae.Config{Encoder: enc,
			DecoderWidth: 8, DecoderDepth: 1, DecoderHeads: 2, MaskRatio: 0.75},
		scale: 10, dataset: "UCM", epochs: 4, batch: 8, seed: 1,
	}
}

// TestRunRejectsBadFlags: a -scale below 1 (which would probe the
// datasets -scale 1 does), an unknown -dataset, a non-positive -batch
// or -epochs fails by name before the command loads a checkpoint or
// prints anything (not after "no checkpoint: probing…").
func TestRunRejectsBadFlags(t *testing.T) {
	for _, c := range []struct {
		name string
		set  func(*options)
		want string
	}{
		{"scale 0", func(o *options) { o.scale = 0 }, "bad -scale 0"},
		{"scale -2", func(o *options) { o.scale = -2 }, "bad -scale -2"},
		{"dataset FOO", func(o *options) { o.dataset = "FOO" }, `unknown dataset "FOO"`},
		{"batch 0", func(o *options) { o.batch = 0 }, "bad -batch 0"},
		{"batch -4", func(o *options) { o.batch = -4 }, "bad -batch -4"},
		{"epochs 0", func(o *options) { o.epochs = 0 }, "bad -epochs 0"},
		{"epochs -1", func(o *options) { o.epochs = -1 }, "bad -epochs -1"},
	} {
		o := tinyProbeOptions()
		o.checkpoint = filepath.Join(t.TempDir(), "missing.state")
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

// TestProbeFromCheckpoint: -checkpoint probes the weights of the
// TrainState a real pretraining run wrote — the per-epoch report differs
// from the random-weight baseline's and names the run's step — and a
// state of another architecture, a one-token grid or an unknown dataset
// fails by name.
func TestProbeFromCheckpoint(t *testing.T) {
	o := tinyProbeOptions()
	var baseline strings.Builder
	if err := run(o, &baseline); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(baseline.String(), "no checkpoint") || !strings.Contains(baseline.String(), "tiny on UCM: top1 ") {
		t.Fatalf("baseline report incomplete:\n%s", baseline.String())
	}

	// Enough steps at a high enough rate that the features, and with
	// them every accuracy line of the report, leave the seed's.
	pcfg := train.DefaultPretrain(o.mae)
	pcfg.Epochs, pcfg.MaxStepsPerEpoch, pcfg.BatchSize, pcfg.Workers, pcfg.BaseLR = 4, 8, 8, 2, 0.5
	trained, err := train.PretrainDistributed(train.DistConfig{PretrainConfig: pcfg, Ranks: 1},
		geodata.NewSuite(o.scale, 12, 3, o.seed).Pretrain)
	if err != nil {
		t.Fatal(err)
	}
	o.checkpoint = filepath.Join(t.TempDir(), "run.state")
	if err := train.SaveTrainStateFile(o.checkpoint, trained.State); err != nil {
		t.Fatal(err)
	}
	var probed strings.Builder
	if err := run(o, &probed); err != nil {
		t.Fatal(err)
	}
	first, report, _ := strings.Cut(probed.String(), "\n")
	if !strings.Contains(first, "at step 32") {
		t.Errorf("restore line missing the run's step count: %q", first)
	}
	if _, baseReport, _ := strings.Cut(baseline.String(), "\n"); report == baseReport {
		t.Errorf("probing the checkpoint reported exactly the random-weight baseline:\n%s", report)
	}

	wider := o
	wider.mae.Encoder.Width, wider.mae.Encoder.MLP = 24, 48
	if err := run(wider, &strings.Builder{}); err == nil || !strings.Contains(err.Error(), "wrong architecture") {
		t.Errorf("checkpoint of another architecture: got %v", err)
	}
	oneToken := o
	oneToken.mae.Encoder.PatchSize = oneToken.mae.Encoder.ImageSize
	if err := run(oneToken, &strings.Builder{}); err == nil || !strings.HasPrefix(err.Error(), "mae: 1 patch token") {
		t.Errorf("one-token grid: got %v", err)
	}
	o.dataset = "EuroSAT"
	if err := run(o, &strings.Builder{}); err == nil || !strings.Contains(err.Error(), `unknown dataset "EuroSAT"`) {
		t.Errorf("unknown dataset: got %v", err)
	}
}
