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

	"repro/geofm"
)

type options struct {
	mae        geofm.MAEConfig
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

	enc, err := geofm.Analog(*model, *imageSize, *patchSize, *channels)
	if err != nil {
		fatal(err)
	}
	o := options{mae: geofm.DefaultMAE(enc), scale: *scale, checkpoint: *checkpoint,
		dataset: *dataset, epochs: *epochs, batch: *batch, seed: *seed}
	if err := run(o, os.Stdout); err != nil {
		fatal(err)
	}
}

// run probes the checkpointed (or seed-initialized) encoder and reports
// to w (factored out so tests can drive the command).
func run(o options, w io.Writer) error {
	enc := o.mae.Encoder
	m := geofm.NewMAE(o.mae, o.seed)
	if o.checkpoint != "" {
		st, err := geofm.LoadTrainState(o.checkpoint)
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

	suite := geofm.NewSuite(o.scale, enc.ImageSize, enc.Channels, o.seed)
	var ds *geofm.Dataset
	for _, d := range suite.Probe {
		if d.Name == o.dataset {
			ds = d
		}
	}
	if ds == nil {
		return fmt.Errorf("unknown dataset %q (want MillionAID, UCM, AID or NWPU)", o.dataset)
	}

	cfg := geofm.DefaultProbe(o.batch)
	cfg.Epochs = o.epochs
	cfg.Seed = o.seed
	cfg.Log = w
	_, res, err := geofm.LinearProbe(cfg, m.Features, enc.Width, ds)
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
