// Command serve runs the inference serving stack over a trained (or
// seed-initialized) encoder: it fits linear probe heads for the
// classification and segmentation workloads, then drives the dynamic
// batcher with a deterministic load generator and prints the measured
// p50/p99 latency, throughput, and batch-occupancy table.
//
// Usage:
//
//	serve -ckpt vit1b.ckpt -rates 500,1000,2000 -n 200
//	serve -model ViT-Base -mode virtual -max-batch 8 -max-wait 2e-3
//	serve -mode wall -workers 2 -rates 1000
//	serve -closed -clients 4 -per-client 25 -think 1e-3
//
// -ckpt reads the resumable TrainState cmd/pretrain -out writes (the
// one checkpoint format) and serves its fp32 master weights; the
// architecture flags must be the training run's. -mode virtual
// (default) executes requests with real model compute on a virtual
// clock, so every number in the table is bit-for-bit reproducible run
// to run. -mode wall replays the same schedule in real time against the
// goroutine server, which runs the same batcher policy on the host
// clock; those numbers carry host noise. -profile prices the
// virtual/simulated batches with a measured hardware profile from
// cmd/calibrate instead of the default host assumptions.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"repro/geofm"
)

type options struct {
	mae     geofm.MAEConfig
	ckpt    string
	bf16    bool
	mode    string
	rates   []float64
	n       int
	cfg     geofm.ServeConfig
	closed  bool
	loop    geofm.ServeClosedLoopSpec
	scale   int
	epochs  int
	seed    uint64
	profile string
}

func main() {
	model := flag.String("model", "ViT-Base", "Table I model whose analog to serve (ViT-Base, ViT-Huge, ViT-1B, ViT-3B)")
	imageSize := flag.Int("image", 32, "image size of the procedural scenes")
	patchSize := flag.Int("patch", 8, "ViT patch size")
	channels := flag.Int("channels", 3, "image channels")
	ckpt := flag.String("ckpt", "", "TrainState to serve (cmd/pretrain -out); fresh seed weights when empty")
	bf16 := flag.Bool("bf16", false, "round the served weights to bf16")
	mode := flag.String("mode", "virtual", "execution mode: virtual (deterministic clock, real compute) or wall (goroutine server, real time)")
	rates := flag.String("rates", "500,1000,2000", "comma-separated open-loop arrival rates to sweep (requests/s)")
	n := flag.Int("n", 200, "requests per open-loop run")
	maxBatch := flag.Int("max-batch", 8, "dynamic batcher: close a batch at this many requests")
	maxWait := flag.Float64("max-wait", 2e-3, "dynamic batcher: close a batch this many seconds after its oldest request")
	queueCap := flag.Int("queue-cap", 64, "admission queue bound; requests beyond it are shed")
	workers := flag.Int("workers", 1, "batch execution engines")
	closed := flag.Bool("closed", false, "append a closed-loop run to the sweep")
	clients := flag.Int("clients", 4, "closed loop: concurrent clients")
	perClient := flag.Int("per-client", 25, "closed loop: requests per client")
	think := flag.Float64("think", 1e-3, "closed loop: think time between a response and the next request (s)")
	scale := flag.Int("scale", 50, "Table II sample-count divisor for the head-fitting dataset")
	epochs := flag.Int("epochs", 5, "probe-head fitting epochs")
	seed := flag.Uint64("seed", 1, "master seed (weights, head fitting, load schedule)")
	profile := flag.String("profile", "", "hardware profile (hwprofile.json from cmd/calibrate) to price virtual/simulated batches")
	flag.Parse()

	enc, err := geofm.Analog(*model, *imageSize, *patchSize, *channels)
	if err != nil {
		fatal(err)
	}
	rateList, err := parseRates(*rates)
	if err != nil {
		fatal(err)
	}
	o := options{
		mae:   geofm.DefaultMAE(enc),
		ckpt:  *ckpt,
		bf16:  *bf16,
		mode:  *mode,
		rates: rateList,
		n:     *n,
		cfg: geofm.ServeConfig{
			MaxBatch:   *maxBatch,
			MaxWaitSec: *maxWait,
			QueueCap:   *queueCap,
			Workers:    *workers,
		},
		closed: *closed,
		loop: geofm.ServeClosedLoopSpec{
			Clients:   *clients,
			PerClient: *perClient,
			ThinkSec:  *think,
		},
		scale:   *scale,
		epochs:  *epochs,
		seed:    *seed,
		profile: *profile,
	}
	if err := run(o, os.Stdout); err != nil {
		fatal(err)
	}
}

// run executes the whole serving session against w (factored out so
// tests can capture the deterministic table).
func run(o options, w io.Writer) error {
	if o.mode != "virtual" && o.mode != "wall" {
		return fmt.Errorf("unknown -mode %q (want virtual or wall)", o.mode)
	}
	if err := o.cfg.Validate(); err != nil {
		return err
	}
	for _, r := range o.rates {
		if badRate(r) {
			return fmt.Errorf("bad arrival rate %v", r)
		}
	}
	if t := o.loop.ThinkSec; o.closed && (!(t >= 0) || math.IsInf(t, 1)) {
		return fmt.Errorf("bad -think %v: want a finite non-negative time", t)
	}
	enc := o.mae.Encoder

	var m *geofm.ServeModel
	if o.ckpt != "" {
		// One format, the TrainState cmd/pretrain -out writes; anything
		// else fails with LoadTrainState's own diagnosis (not an
		// envelope, unknown version, checksum mismatch, malformed state).
		st, err := geofm.LoadTrainState(o.ckpt)
		if err == nil {
			m, err = geofm.ServeModelFromState(o.mae, st)
		}
		if err != nil {
			return fmt.Errorf("-ckpt %s: %w", o.ckpt, err)
		}
		fmt.Fprintf(w, "serving %s from %s (step %d)\n", enc.Name, o.ckpt, st.Step)
	} else {
		m = geofm.NewServeModel(o.mae, o.seed)
		fmt.Fprintf(w, "serving %s with seed-%d weights (no checkpoint)\n", enc.Name, o.seed)
	}
	return session(o, m, w)
}

// session fits the probe heads on m's features and drives the load
// sweep — everything after the choice of weights, so a test can hold
// the checkpoint route to the same weights served from memory.
func session(o options, m *geofm.ServeModel, w io.Writer) error {
	enc := o.mae.Encoder

	// Fit the classification and segmentation heads on the UCM analog
	// so Classify/Segment requests are admissible.
	suite := geofm.NewSuite(o.scale, enc.ImageSize, enc.Channels, o.seed)
	ds := suite.Probe[1]
	pcfg := geofm.DefaultProbe(16)
	pcfg.Epochs = o.epochs
	pcfg.Seed = o.seed
	cls, clsRes, err := geofm.LinearProbe(pcfg, m.MAE.Features, enc.Width, ds)
	if err != nil {
		return err
	}
	scfg := geofm.DefaultSeg()
	scfg.Epochs = o.epochs
	scfg.Seed = o.seed
	seg, segRes, err := geofm.Segment(scfg, m.MAE.TokenFeatures, enc.Width, ds, enc.PatchSize)
	if err != nil {
		return err
	}
	m.AttachHeads(cls, seg)
	fmt.Fprintf(w, "heads fitted on %s: top-1 %.3f, patch-acc %.3f\n", ds.Name, clsRes.FinalTop1, segRes.PatchAccuracy)
	if o.bf16 {
		m.RoundBF16()
		fmt.Fprintln(w, "weights rounded to bf16")
	}

	lat := geofm.DefaultServeLatency(enc)
	if o.profile != "" {
		p, err := geofm.LoadHardwareProfile(o.profile)
		if err != nil {
			return err
		}
		if lat, err = geofm.ServeLatencyFromProfile(p, enc); err != nil {
			return err
		}
	}
	fmt.Fprintf(w, "batch latency curve: %s\n\n", lat)

	img := imageFor(ds)
	mix := []geofm.ServeKind{geofm.ServeEmbed, geofm.ServeClassify, geofm.ServeSegment}
	var reports []geofm.ServeReport
	for _, rate := range o.rates {
		arrivals := geofm.ServePoissonArrivals(rate, o.n, mix, img, o.seed)
		var res *geofm.ServeRunResult
		if o.mode == "wall" {
			res, err = geofm.ServeWall(o.cfg, m, arrivals)
		} else {
			res, err = geofm.ServeVirtual(o.cfg, lat, m, arrivals)
		}
		if err != nil {
			return err
		}
		reports = append(reports, geofm.ServeSummarize(fmt.Sprintf("%s-rate%g", o.mode, rate), res))
	}
	if o.closed {
		cl := o.loop
		cl.Mix = mix
		cl.Image = img
		res, err := geofm.ServeClosedLoop(o.cfg, lat, m, cl)
		if err != nil {
			return err
		}
		label := fmt.Sprintf("closed-%dx%d", cl.Clients, cl.PerClient)
		reports = append(reports, geofm.ServeSummarize(label, res))
	}
	fmt.Fprint(w, geofm.ServeRenderTable(reports))
	return nil
}

// imageFor renders serving payloads from the dataset's test split,
// cycling when the schedule is longer than the split.
func imageFor(ds *geofm.Dataset) func(i int) []float32 {
	return func(i int) []float32 {
		img := make([]float32, ds.Gen.ImageLen())
		ds.TestSample(i%ds.TestCount, img)
		return img
	}
}

func parseRates(s string) ([]float64, error) {
	var rates []float64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		r, err := strconv.ParseFloat(part, 64)
		if err != nil || badRate(r) {
			return nil, fmt.Errorf("bad rate %q in -rates", part)
		}
		rates = append(rates, r)
	}
	if len(rates) == 0 {
		return nil, fmt.Errorf("-rates named no arrival rates")
	}
	return rates, nil
}

// badRate rejects an arrival rate the load generator cannot schedule:
// zero, negative, NaN or infinite.
func badRate(r float64) bool {
	return !(r > 0) || math.IsInf(r, 1) // !(r > 0) catches NaN
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "serve:", err)
	os.Exit(1)
}
