// Command linprobe evaluates a pretrained checkpoint by linear probing
// on one of the Table II analog datasets, reporting top-1/top-5
// accuracy per epoch. -checkpoint reads the resumable TrainState
// cmd/pretrain -out writes and probes its fp32 master weights.
//
// Usage:
//
//	linprobe -model ViT-1B -checkpoint vit1b.ckpt -dataset UCM
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/geodata"
	"repro/internal/mae"
	"repro/internal/probe"
	"repro/internal/rng"
	"repro/internal/train"
	"repro/internal/vit"
)

type options struct {
	mae        mae.Config
	scale      int
	checkpoint string
	dataset    string
	epochs     int
	batch      int
	seed       uint64
}

func main() {
	model := flag.String("model", "ViT-Base", "Table I model whose analog the checkpoint holds")
	imageSize := flag.Int("image", 32, "image size (must match pretraining)")
	patchSize := flag.Int("patch", 8, "patch size (must match pretraining)")
	channels := flag.Int("channels", 3, "image channels (must match pretraining)")
	scale := flag.Int("scale", 10, "Table II sample-count divisor")
	checkpoint := flag.String("checkpoint", "", "TrainState path (cmd/pretrain -out); empty = random weights baseline")
	dataset := flag.String("dataset", "UCM", "dataset: MillionAID, UCM, AID, NWPU")
	epochs := flag.Int("epochs", 60, "probe epochs")
	batch := flag.Int("batch", 32, "probe batch size")
	seed := flag.Uint64("seed", 1, "seed")
	flag.Parse()

	enc, err := vit.Analog(*model, *imageSize, *patchSize, *channels)
	if err != nil {
		fatal(err)
	}
	o := options{mae: mae.Default(enc), scale: *scale, checkpoint: *checkpoint,
		dataset: *dataset, epochs: *epochs, batch: *batch, seed: *seed}
	if err := run(o, os.Stdout); err != nil {
		fatal(err)
	}
}

// run probes the checkpointed (or seed-initialized) encoder and reports
// to w (factored out so tests can drive the command).
func run(o options, w io.Writer) error {
	if o.scale < 1 {
		return fmt.Errorf("bad -scale %d (want at least 1)", o.scale)
	}
	if o.batch < 1 {
		return fmt.Errorf("bad -batch %d (want at least 1)", o.batch)
	}
	if o.epochs < 1 {
		return fmt.Errorf("bad -epochs %d (want at least 1)", o.epochs)
	}
	if err := o.mae.Validate(); err != nil {
		return err
	}
	enc := o.mae.Encoder
	suite := geodata.NewSuite(o.scale, enc.ImageSize, enc.Channels, o.seed)
	var ds *geodata.Dataset
	for _, d := range suite.Probe {
		if d.Name == o.dataset {
			ds = d
		}
	}
	if ds == nil {
		return fmt.Errorf("unknown dataset %q (want MillionAID, UCM, AID or NWPU)", o.dataset)
	}

	m := mae.New(o.mae, rng.New(o.seed))
	if o.checkpoint != "" {
		st, err := train.LoadTrainStateFile(o.checkpoint)
		if err == nil {
			err = st.LoadInto(m.Params())
		}
		if err != nil {
			return fmt.Errorf("-checkpoint %s: %w", o.checkpoint, err)
		}
		fmt.Fprintf(w, "restored %s at step %d\n", o.checkpoint, st.Step)
	} else {
		fmt.Fprintln(w, "no checkpoint: probing random-weight features (baseline)")
	}

	cfg := probe.Default(o.batch)
	cfg.Epochs = o.epochs
	cfg.Seed = o.seed
	cfg.Log = w
	_, res, err := probe.FitHead(cfg, m.Features, enc.Width, ds)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s on %s: top1 %.2f%%  top5 %.2f%%  (train %d / test %d)\n",
		enc.Name, ds.Name, 100*res.FinalTop1, 100*res.FinalTop5, res.TrainCount, res.TestCount)
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "linprobe:", err)
	os.Exit(1)
}
