package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/calib"
	"repro/internal/fsdp"
	"repro/internal/geodata"
	"repro/internal/mae"
	"repro/internal/serve"
	"repro/internal/train"
	"repro/internal/vit"
)

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"pretrain_compute", "shard_bf16_overlap", "ddp_fp32_sync", "serve_mixed"}

// workload is one set of inputs the benchmark runs. Training workloads
// repeat one public pretraining call of repSteps optimizer steps;
// serve_mixed (serve != nil) drives a wall-clock serve.Server and uses
// its training fields only to produce the checkpoint it serves.
type workload struct {
	name  string
	mae   mae.Config
	batch int // global batch
	// ranks 0 means the single-process train.Pretrain; ≥1 means
	// train.PretrainDistributed with that world size.
	ranks       int
	plan        fsdp.Plan
	precision   train.Precision
	overlap     bool
	bucketBytes int
	// warmSteps is the warm-up call in set-up; repSteps the optimizer
	// steps of each measured call.
	warmSteps, repSteps int
	// ledgerSteps and distSteps are the fixed lengths of the traced
	// run's step loop and distributed run: fixed, not fitted to
	// -seconds, so that the loss they end on repeats exactly for a seed.
	ledgerSteps, distSteps int
	serve                  *serveShape
	// gemmShapes and streamElems size the two host-ceiling probes
	// (calib.MeasureRoofline, calib.MeasureStream).
	gemmShapes  [][3]int
	streamElems int
}

// serveShape is the serving half of serve_mixed. rateLo and rateHi are
// frozen at ~0.45× and ~0.75× of the closed-loop capacity measured on
// the host the benchmark was defined on (~185 req/s); they are never
// derived at run time, so a faster server shows as lower latency at the
// same offered load, not as a moved goalpost. End-to-end latency is
// taken at rateLo, where it follows batch forming and compute; at rateHi
// it follows the luck of the Poisson bursts and is a per-layer ratio.
type serveShape struct {
	cfg            serve.Config
	clients        int
	rateLo, rateHi float64
	warmRequests   int
}

// workloadsAt builds the workload set of a -scale: full is what
// BENCHMARK.json describes; smoke shrinks every shape so the hermetic
// test runs the same code paths in seconds.
func workloadsAt(scale string) ([]workload, error) {
	if scale != "full" && scale != "smoke" {
		return nil, fmt.Errorf("unknown -scale %q (want full or smoke)", scale)
	}
	smoke := scale == "smoke"
	analog := func(name string, image, patch int) mae.Config {
		enc, err := vit.Analog(name, image, patch, 3)
		if err != nil {
			panic(err) // a bug in this table, not an input
		}
		return mae.Default(enc)
	}
	// Three shapes: the compute-bound step, the parameter-bound step the
	// two 2-rank workloads share, and the served model.
	compute := workload{mae: analog("ViT-3B", 64, 4), batch: 16,
		warmSteps: 2, repSteps: 5, ledgerSteps: 13, distSteps: 6}
	sharded := workload{mae: analog("ViT-3B", 16, 4), batch: 4, ranks: 2,
		warmSteps: 50, repSteps: 50, ledgerSteps: 301, distSteps: 200}
	served := workload{mae: analog("ViT-1B", 64, 4), batch: 8, ranks: 1,
		warmSteps: 2, ledgerSteps: 25, distSteps: 8,
		serve: &serveShape{
			cfg:     serve.Config{MaxBatch: 8, MaxWaitSec: 2e-3, QueueCap: 64, Workers: 2},
			clients: 16, rateLo: 80, rateHi: 140, warmRequests: 64,
		}}
	for _, w := range []*workload{&compute, &sharded, &served} {
		w.plan = fsdp.DefaultDDP()
		w.gemmShapes, w.streamElems = calib.DefaultGEMMShapes(), 1<<22
		if smoke {
			w.mae, w.batch = analog("ViT-Base", 16, 4), 4
			w.warmSteps, w.repSteps, w.ledgerSteps, w.distSteps = 2, 2, 5, 4
			w.gemmShapes, w.streamElems = calib.QuickGEMMShapes()[:2], 1<<12
		}
	}
	if smoke {
		served.serve.rateLo, served.serve.rateHi, served.serve.warmRequests = 200, 400, 8
	}

	compute.name = "pretrain_compute"
	shard, ddp := sharded, sharded
	shard.name = "shard_bf16_overlap"
	shard.plan, shard.precision = fsdp.BestPractice(fsdp.FullShard, 0), train.BF16
	shard.overlap, shard.bucketBytes = true, 256<<10
	ddp.name = "ddp_fp32_sync"
	served.name = "serve_mixed"
	return []workload{compute, shard, ddp, served}, nil
}

// dataset builds the workload's procedural pretraining corpus, large
// enough for steps optimizer steps per epoch.
func (w workload) dataset(seed uint64, steps int) *geodata.Dataset {
	enc := w.mae.Encoder
	return &geodata.Dataset{
		Name:       w.name,
		Gen:        geodata.NewSceneGen(8, enc.ImageSize, enc.Channels, seed*0x9e3779b97f4a7c15+1),
		TrainCount: w.batch * (steps + 1),
	}
}

// pretrainConfig is the paper's recipe at the workload's shape: one
// epoch of steps optimizer steps, at most two loader workers in the
// process.
func (w workload) pretrainConfig(seed uint64, steps int) train.PretrainConfig {
	cfg := train.DefaultPretrain(w.mae)
	cfg.BatchSize = w.batch
	cfg.Epochs = 1
	cfg.MaxStepsPerEpoch = steps
	cfg.Seed = seed
	cfg.Workers = 2
	if w.ranks > 1 {
		cfg.Workers = 1
	}
	return cfg
}

// distConfig is the workload's PretrainDistributed configuration at
// the given world size.
func (w workload) distConfig(seed uint64, steps, ranks int) train.DistConfig {
	return train.DistConfig{
		PretrainConfig: w.pretrainConfig(seed, steps),
		Ranks:          ranks,
		Plan:           w.plan,
		Precision:      w.precision,
		Overlap:        w.overlap,
		BucketBytes:    w.bucketBytes,
	}
}

// trainOut is one public pretraining call as the benchmark sees it.
type trainOut struct {
	wallSec float64
	steps   int
	loss    []float64
	dist    *train.DistResult // nil for train.Pretrain
}

// pretrain makes the workload's public pretraining call — train.Pretrain
// when ranks is 0, train.PretrainDistributed otherwise — and times the
// wall clock around it.
func (w workload) pretrain(seed uint64, steps, ranks int) (*trainOut, error) {
	ds := w.dataset(seed, steps)
	start := time.Now()
	if ranks == 0 {
		res, err := train.Pretrain(w.pretrainConfig(seed, steps), ds)
		if err != nil {
			return nil, err
		}
		return &trainOut{wallSec: time.Since(start).Seconds(), steps: res.Steps,
			loss: res.LossCurve.Y}, nil
	}
	res, err := train.PretrainDistributed(w.distConfig(seed, steps, ranks), ds)
	if err != nil {
		return nil, err
	}
	return &trainOut{wallSec: time.Since(start).Seconds(), steps: res.Steps,
		loss: res.LossCurve.Y, dist: res}, nil
}

// setupReps is how many times a run sets up; setup_s is their median.
const setupReps = 3

// runEndToEnd measures the end-to-end metrics with the recorder off.
func runEndToEnd(w workload, seed uint64, seconds float64, rec *runRecord) error {
	var err error
	if w.serve != nil {
		err = serveEndToEnd(w, seed, seconds, rec)
	} else {
		err = trainEndToEnd(w, seed, seconds, rec)
	}
	if err != nil {
		return err
	}
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	rec.set("peak_rss_mb", "MB", rss, nil)
	return nil
}

// trainEndToEnd sets up setupReps times (dataset + a warm-up call),
// then repeats the public pretraining call until the time is spent.
// Every rep trains the same seed, so the loss trajectories must agree
// bitwise; throughput and step latency are per-rep samples.
func trainEndToEnd(w workload, seed uint64, seconds float64, rec *runRecord) error {
	var setups []float64
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		warm, err := w.pretrain(seed, w.warmSteps, w.ranks)
		if err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		setups = append(setups, warm.wallSec)
	}
	rec.set("setup_s", "s", median(setups), setups)

	var (
		first          *trainOut
		ips, stepMs    []float64
		skipped        int
		deterministic  = true
		deadline       = time.Now().Add(time.Duration(seconds * float64(time.Second)))
		stepsAttempted int
	)
	const minReps = 3
	for rep := 0; rep < minReps || time.Now().Before(deadline); rep++ {
		runtime.GC() // every rep starts from a collected heap, outside the timed call
		out, err := w.pretrain(seed, w.repSteps, w.ranks)
		if err != nil {
			return err
		}
		if first == nil {
			first = out
		} else if !sameBits(first.loss, out.loss) {
			deterministic = false
		}
		stepsAttempted += out.steps
		if out.dist != nil {
			skipped += out.dist.SkippedSteps
		}
		ips = append(ips, float64(out.steps*w.batch)/out.wallSec)
		stepMs = append(stepMs, 1e3*out.wallSec/float64(out.steps))
	}
	rec.set("items_per_s", "1/s", fastQuartile(ips, true), ips)
	rec.set("latency_ms_p50", "ms", fastQuartile(stepMs, false), stepMs)

	nonFinite := 0
	for _, l := range first.loss {
		if math.IsNaN(l) || math.IsInf(l, 0) {
			nonFinite++
		}
	}
	reps := len(ips)
	rec.Attempted = stepsAttempted
	rec.Failed = skipped + nonFinite*reps
	rec.check("loss_finite", nonFinite == 0, fmt.Sprintf("%d non-finite losses in %d steps", nonFinite, len(first.loss)))
	rec.check("reps_bitwise_equal", deterministic, "the same seed trained different loss trajectories")
	rec.check("steps_ran", first.steps == w.repSteps, fmt.Sprintf("ran %d steps, want %d", first.steps, w.repSteps))
	if w.ranks > 1 {
		ref, err := w.pretrain(seed, w.repSteps, 1)
		if err != nil {
			return fmt.Errorf("1-rank reference: %w", err)
		}
		rec.checkRanksAgree(w.ranks, last(first.loss), last(ref.loss))
		rec.checkWireBytes(first.dist)
	}
	return nil
}

// checkRanksAgree holds the multi-rank final loss to the 1-rank loss of
// the same configuration within 1e-4 relative: the ring reductions may
// reassociate, nothing else may differ.
func (rec *runRecord) checkRanksAgree(ranks int, multi, single float64) {
	rel := math.Abs(multi-single) / math.Max(math.Abs(single), 1e-12)
	rec.check("loss_matches_1rank", rel <= 1e-4,
		fmt.Sprintf("%d-rank loss %.9g vs 1-rank %.9g (rel %.3g)", ranks, multi, single, rel))
}

// checkWireBytes holds the executed per-step wire bytes to the
// simulator's closed form, op by op.
func (rec *runRecord) checkWireBytes(d *train.DistResult) {
	steps := float64(d.Steps)
	ok := bitsEqual(d.Comm.AllReduce.MeasuredWireBytes, d.Traffic.AllReduceBytes*steps) &&
		bitsEqual(d.Comm.ReduceScatter.MeasuredWireBytes, d.Traffic.ReduceScatterBytes*steps) &&
		bitsEqual(d.Comm.AllGather.MeasuredWireBytes, d.Traffic.AllGatherBytes*steps)
	rec.check("wire_bytes_match_fsdp", ok,
		fmt.Sprintf("measured %+v vs fsdp.TrafficPerStep %+v × %d steps", d.Comm, d.Traffic, d.Steps))
}

// wireBytesPerStep is the measured gradient/parameter traffic of one
// optimizer step (what fsdp.TrafficPerStep predicts).
func wireBytesPerStep(d *train.DistResult) float64 {
	c := d.Comm
	return (c.AllReduce.MeasuredWireBytes + c.ReduceScatter.MeasuredWireBytes + c.AllGather.MeasuredWireBytes) / float64(d.Steps)
}

// callsPerStep counts the collectives of one optimizer step, the
// scalar loss average included.
func callsPerStep(d *train.DistResult) float64 {
	c := d.Comm
	return float64(c.AllReduce.Calls+c.ReduceScatter.Calls+c.AllGather.Calls+c.Scalar.Calls) / float64(d.Steps)
}

func (rec *runRecord) set(name, unit string, v float64, reps []float64) {
	rec.Metrics[name] = metric{Value: v, Unit: unit}
	if reps == nil {
		reps = []float64{v}
	}
	rec.Reps[name] = reps
}

func (rec *runRecord) check(name string, ok bool, detail string) {
	c := check{Name: name, OK: ok}
	if !ok {
		c.Detail = detail
	}
	rec.Checks = append(rec.Checks, c)
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// fastQuartile is the quartile of the samples on the fast side: the
// throughput a quarter of the reps reach or beat, or the time a quarter
// of them stay at or under (nearest rank). On a shared host a
// neighbour only ever takes time away, in stretches of seconds, so the
// median of a run's reps tracks the neighbours and the fast quartile
// tracks the program; README.md records the measured spread of both.
func fastQuartile(xs []float64, higherIsFaster bool) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := (len(s) - 1) / 4
	if higherIsFaster {
		i = len(s) - 1 - i
	}
	return s[i]
}

func last(xs []float64) float64 { return xs[len(xs)-1] }

// bitsEqual is exact float equality, for quantities that must repeat
// to the last bit.
func bitsEqual(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bitsEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}
