// Package geofm is the public API of the geospatial foundation-model
// library: pretraining billion-scale-style Vision Transformers with
// masked autoencoding on remote-sensing imagery, adapting them to
// downstream classification and segmentation via linear probing,
// serving the trained models behind a dynamic batcher, and
// planning/simulating distributed training runs on Frontier-class
// systems with PyTorch-FSDP sharding semantics.
//
// The package re-exports the stable types of the internal
// implementation through aliases, so downstream code imports a single
// package:
//
//	enc, _ := geofm.Analog("ViT-3B", 32, 8, 3)
//	res, _ := geofm.Pretrain(geofm.DefaultPretrain(geofm.DefaultMAE(enc)), dataset)
//	cls, probe, _ := geofm.LinearProbe(geofm.DefaultProbe(256), res.Model.Features, enc.Width, ucm)
//	seg, masks, _ := geofm.Segment(geofm.DefaultSeg(), res.Model.TokenFeatures, enc.Width, ucm, enc.PatchSize)
//
//	plan, why := geofm.Advise(geofm.ViT5B, 32)     // sharding advisor
//	sim, _ := geofm.Simulate(geofm.ViTWorkload(geofm.ViT5B, 32), geofm.Frontier(), 32, plan)
//
// The serving surface (Serve*) turns a checkpoint into a request-
// driven inference service — embeddings, classification and
// segmentation behind a max-batch/max-wait batcher. One batcher policy
// runs in every form — the wall-clock server (ServeWall), the
// deterministic virtual executor (ServeVirtual) and the no-compute
// serving simulator (ServeSimulate) — and each returns a ServeRunResult
// that ServeSummarize reports (see Example_serving).
package geofm

import (
	"fmt"

	"repro/internal/calib"
	"repro/internal/comm"
	"repro/internal/dist"
	"repro/internal/fsdp"
	"repro/internal/geodata"
	"repro/internal/hw"
	"repro/internal/mae"
	"repro/internal/opt"
	"repro/internal/perfmodel"
	"repro/internal/probe"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/trace"
	"repro/internal/train"
	"repro/internal/vit"
)

// ---- Model architectures (Table I) ------------------------------------

// ViTConfig describes a Vision Transformer encoder variant.
type ViTConfig = vit.Config

// The paper's Table I variants.
var (
	ViTBase = vit.ViTBase
	ViTHuge = vit.ViTHuge
	ViT1B   = vit.ViT1B
	ViT3B   = vit.ViT3B
	ViT5B   = vit.ViT5B
	ViT15B  = vit.ViT15B
	// TableI lists all six variants in the paper's order.
	TableI = vit.TableI
)

// ModelByName resolves a Table I variant by its paper name.
func ModelByName(name string) (ViTConfig, error) { return vit.ByName(name) }

// Analog returns a laptop-trainable scaled-down analog of a Table I
// variant (preserving the size ordering), for real training runs.
func Analog(name string, imageSize, patchSize, channels int) (ViTConfig, error) {
	return vit.Analog(name, imageSize, patchSize, channels)
}

// AnalogFamily returns the Base/Huge/1B/3B analogs in order.
func AnalogFamily(imageSize, patchSize, channels int) ([]ViTConfig, error) {
	return vit.AnalogFamily(imageSize, patchSize, channels)
}

// ---- MAE pretraining ---------------------------------------------------

// MAEConfig couples an encoder with masked-autoencoder settings.
type MAEConfig = mae.Config

// MAEModel is a trainable masked autoencoder.
type MAEModel = mae.Model

// DefaultMAE returns the paper's MAE configuration (75% masking,
// lightweight 512×8 decoder) for the given encoder.
func DefaultMAE(enc ViTConfig) MAEConfig { return mae.Default(enc) }

// NewMAE constructs a trainable model with weights from the given seed.
func NewMAE(cfg MAEConfig, seed uint64) *MAEModel { return mae.New(cfg, rng.New(seed)) }

// FlatParamCount returns a model's total trainable element count — the
// paramElems argument PredictStepTraffic expects.
func FlatParamCount(m *MAEModel) int { return opt.FlatDim(m.Params()) }

// PretrainConfig carries pretraining hyper-parameters.
type PretrainConfig = train.PretrainConfig

// PretrainResult bundles the trained model and telemetry.
type PretrainResult = train.PretrainResult

// DefaultPretrain returns the paper's pretraining recipe (AdamW base LR
// 1.5e-4, weight decay 0.05, cosine schedule, 100 epochs).
func DefaultPretrain(m MAEConfig) PretrainConfig { return train.DefaultPretrain(m) }

// Pretrain runs MAE pretraining over the dataset's training split:
// PretrainDistributed on a world of one rank. Call PretrainDistributed
// (with Ranks: 1) instead when the run's artifact is wanted —
// DistPretrainResult.State, the resumable TrainState that SaveTrainState
// persists and ServeModelFromState / TrainState.LoadInto consume.
func Pretrain(cfg PretrainConfig, ds *Dataset) (*PretrainResult, error) {
	return train.Pretrain(cfg, ds)
}

// ---- Distributed execution (real multi-rank training) ------------------

// DistPretrainConfig configures real multi-rank pretraining: the
// embedded PretrainConfig is global (BatchSize is the global batch,
// split across Ranks), Plan selects the synchronization strategy — the
// full Section III-C matrix executes: DDP-style bucketed all-reduce,
// ZeRO-1 (SHARD_GRAD_OP), FULL_SHARD with parameter resharding between
// forward and backward, and the two-level HYBRID_kGPUs scheme over
// shard/replica subgroup communicators — and Link is the α–β model
// each executed collective is priced against. Overlap launches each
// gradient bucket's collective the moment the layer-granular backward
// finalizes it (bitwise identical to the synchronous schedule),
// AccumSteps accumulates micro-batches into one optimizer step with
// collectives firing once per window, and Throttle realizes the
// modeled collective time as executed delay so the overlap win is
// measurable (DistPretrainResult.Breakdown).
type DistPretrainConfig = train.DistConfig

// DistPretrainResult extends PretrainResult with the world size, the
// measured-vs-modeled collective accounting, and the per-step traffic
// the fsdp simulator predicts for the same plan.
type DistPretrainResult = train.DistResult

// CommStats is the per-collective accounting of an executed run:
// calls, bytes each rank actually sent around the ring, and the α–β
// model's prediction for the same calls.
type CommStats = dist.Stats

// CommOpStats aggregates one collective kind.
type CommOpStats = dist.OpStats

// CommParams bundles link characteristics for the α–β cost model.
type CommParams = comm.Params

// HardwareProfile is a measured performance profile of one host — GEMM
// roofline, STREAM bandwidth, collective α–β fits, executed train-step
// probe — as emitted by `make calibrate` / cmd/calibrate. Its
// LinkParams feed DistPretrainConfig.Link and its MachineFor replaces
// the asserted Frontier constants in Simulate.
type HardwareProfile = calib.HardwareProfile

// LoadHardwareProfile reads and verifies a checksummed hwprofile.json.
func LoadHardwareProfile(path string) (*HardwareProfile, error) {
	return calib.LoadProfileFile(path)
}

// Precision selects the numeric mode of an executed distributed run:
// FP32, or the BF16 mixed-precision recipe the paper trains with (bf16
// working weights and collective payloads at half the wire bytes, fp32
// master weights and Adam state, dynamic loss scaling).
type Precision = train.Precision

// The executed precisions.
const (
	FP32 = train.FP32
	BF16 = train.BF16
)

// LossScaleConfig tunes BF16 dynamic loss scaling (zero fields take
// the defaults: 2¹⁶ initial scale, ×2 growth, ×0.5 backoff).
type LossScaleConfig = train.LossScaleConfig

// TrainState is what a pretraining run hands on, and the one checkpoint
// format: the resumable training state a run returns
// (DistPretrainResult.State) and accepts (DistPretrainConfig.Resume) —
// fp32 master weights, Adam moments, step counters and the loss-scale
// schedule point. A resumed run continues bitwise-identically to one
// that never stopped; TrainState.LoadInto copies the master weights
// into a model's parameters for probing, ServeModelFromState for
// serving.
type TrainState = train.TrainState

// SaveTrainState persists a resumable training state to path.
func SaveTrainState(path string, st *TrainState) error {
	return train.SaveTrainStateFile(path, st)
}

// LoadTrainState restores a resumable training state from path.
func LoadTrainState(path string) (*TrainState, error) {
	return train.LoadTrainStateFile(path)
}

// DefaultDistPretrain returns the paper's pretraining recipe split
// across ranks with the DDP baseline plan.
func DefaultDistPretrain(m MAEConfig, ranks int) DistPretrainConfig {
	return train.DefaultDistPretrain(m, ranks)
}

// PretrainDistributed runs MAE pretraining across in-process goroutine
// ranks with real ring collectives (internal/dist): broadcast-
// synchronized init, rank-sharded sampling, and per-plan gradient /
// optimizer-state / parameter synchronization (the sharded strategies
// reshard parameters through subgroup communicators). An N-rank run
// reproduces the one-rank (Pretrain) loss trajectory up to float
// reassociation, for every strategy of the matrix.
func PretrainDistributed(cfg DistPretrainConfig, ds *Dataset) (*DistPretrainResult, error) {
	return train.PretrainDistributed(cfg, ds)
}

// ExecBreakdown decomposes an executed run's wall-clock into compute
// and exposed communication (DistPretrainResult.Breakdown) — the
// measured counterpart of the simulator's ComputeTime/ExposedComm
// split, and the quantity the overlap mode shrinks.
type ExecBreakdown = trace.ExecBreakdown

// StepTraffic is the per-rank wire-byte accounting of one step's
// parameter/gradient synchronization.
type StepTraffic = fsdp.Traffic

// PredictStepTraffic returns the per-step collective bytes the Section
// IV simulator charges for a model of paramElems parameters under the
// plan at the given precision's wire width — the numbers an executed
// PretrainDistributed run's measured counters match exactly (BF16 runs
// move exactly half of FP32's bytes).
func PredictStepTraffic(p Plan, world, paramElems int, prec Precision) StepTraffic {
	return fsdp.TrafficPerStep(p, world, paramElems, prec.WireBytes())
}

// ---- Datasets ----------------------------------------------------------

// Dataset is a labeled procedural remote-sensing dataset.
type Dataset = geodata.Dataset

// Suite bundles the pretraining corpus and the four probing datasets of
// Table II (procedural analogs).
type Suite = geodata.Suite

// NewSuite builds Table II analogs at the given scale divisor.
func NewSuite(scale, imageSize, channels int, seed uint64) *Suite {
	return geodata.NewSuite(scale, imageSize, channels, seed)
}

// ---- Linear probing (downstream evaluation) ----------------------------

// ProbeConfig carries linear-probing hyper-parameters.
type ProbeConfig = probe.Config

// ProbeResult is the per-epoch accuracy trajectory of one probe.
type ProbeResult = probe.Result

// FeatureFunc maps image batches to frozen feature rows:
// MAEModel.Features gives one per image (LinearProbe's input),
// MAEModel.TokenFeatures one per patch token (Segment's).
type FeatureFunc = probe.FeatureFunc

// ProbeHead is a trained linear probe packaged for serving.
type ProbeHead = probe.Head

// DefaultProbe returns the paper's probing recipe (LARS, base LR 0.1,
// 100 epochs) for the given global batch.
func DefaultProbe(batch int) ProbeConfig { return probe.Default(batch) }

// LinearProbe trains a linear classifier on frozen features and returns
// it as a servable head alongside the accuracy trajectory.
func LinearProbe(cfg ProbeConfig, features FeatureFunc, featDim int, ds *Dataset) (*ProbeHead, *ProbeResult, error) {
	return probe.FitHead(cfg, features, featDim, ds)
}

// ---- Extended downstream tasks (the paper's envisioned next steps) -----

// FewShot evaluates k-shot adaptation: the probe trains on only `shots`
// labeled examples per class.
func FewShot(cfg ProbeConfig, features FeatureFunc, featDim int, ds *Dataset, shots int) (*ProbeResult, error) {
	return probe.FewShot(cfg, features, featDim, ds, shots)
}

// ShotSweep runs FewShot across several labeled-data budgets.
func ShotSweep(cfg ProbeConfig, features FeatureFunc, featDim int, ds *Dataset, shots []int) ([]*ProbeResult, error) {
	return probe.ShotSweep(cfg, features, featDim, ds, shots)
}

// SegResult reports segmentation probing quality (patch accuracy, mIoU).
type SegResult = probe.SegResult

// DefaultSeg returns the segmentation probing recipe.
func DefaultSeg() ProbeConfig { return probe.DefaultSeg() }

// Segment trains a per-token linear head for semantic segmentation on
// frozen per-token features against the procedural per-pixel ground
// truth, and returns it as a servable head alongside its scores.
func Segment(cfg ProbeConfig, features FeatureFunc, featDim int, ds *Dataset, patchSize int) (*ProbeHead, *SegResult, error) {
	return probe.FitSegHead(cfg, features, featDim, ds, patchSize)
}

// FineTuneConfig configures end-to-end fine-tuning.
type FineTuneConfig = probe.FineTuneConfig

// FineTuneResult reports fine-tuning accuracy per epoch.
type FineTuneResult = probe.FineTuneResult

// DefaultFineTune returns the fine-tuning recipe.
func DefaultFineTune() FineTuneConfig { return probe.DefaultFineTune() }

// FineTune updates the encoder trunk jointly with a fresh classifier
// head (in contrast to LinearProbe's frozen trunk). The model is
// modified in place.
func FineTune(cfg FineTuneConfig, model *MAEModel, ds *Dataset) (*FineTuneResult, error) {
	return probe.FineTune(cfg, model, ds)
}

// ---- Performance planning and simulation -------------------------------

// Machine is a modeled GPU cluster.
type Machine = hw.Machine

// Frontier returns the paper's machine: 8 GCDs/node, 64 GB HBM,
// Infinity Fabric + Slingshot-11.
func Frontier() Machine { return hw.Frontier() }

// Workload describes one rank's per-step training work.
type Workload = perfmodel.Workload

// ViTWorkload profiles supervised-ViT training (Sections IV-B/C/D).
func ViTWorkload(cfg ViTConfig, localBatch int) Workload {
	return perfmodel.ViTWorkload(cfg, localBatch)
}

// MAEPerfWorkload profiles MAE pretraining (Figure 1).
func MAEPerfWorkload(cfg ViTConfig, localBatch int, maskRatio float64) Workload {
	return perfmodel.MAEWorkload(cfg, localBatch, maskRatio)
}

// Plan is one distributed-training configuration.
type Plan = fsdp.Plan

// SimResult is a simulated training-step outcome.
type SimResult = fsdp.Result

// Strategy and prefetch constants.
const (
	DDP         = fsdp.DDP
	NoShard     = fsdp.NoShard
	FullShard   = fsdp.FullShard
	ShardGradOp = fsdp.ShardGradOp
	HybridShard = fsdp.HybridShard

	PrefetchNone = fsdp.PrefetchNone
	BackwardPost = fsdp.BackwardPost
	BackwardPre  = fsdp.BackwardPre
)

// BestPractice returns the Section IV-E recommended configuration for a
// strategy: BACKWARD_PRE prefetch with limit_all_gathers.
func BestPractice(s fsdp.Strategy, group int) Plan { return fsdp.BestPractice(s, group) }

// DefaultDDP returns the Figure 3 DDP baseline configuration (25 MiB
// gradient buckets, BACKWARD_POST).
func DefaultDDP() Plan { return fsdp.DefaultDDP() }

// Simulate models one training step on the machine.
func Simulate(w Workload, m Machine, nodes int, plan Plan) (SimResult, error) {
	return fsdp.Simulate(w, m, nodes, plan)
}

// MinGPUs returns the smallest sharding-group size that fits the
// workload in HBM.
func MinGPUs(w Workload, m Machine) int { return fsdp.MinGPUs(w, m) }

// Advise implements the paper's Section IV-E practical guide: given a
// model and node count it recommends an FSDP plan and explains why.
//
//   - fits on one GCD           → HYBRID_1GPU (pure data parallel via
//     FSDP, per-unit overlapped all-reduce)
//   - fits within one node      → HYBRID_SHARD across the node (model
//     sharding on fast links, data-parallel all-reduce across nodes)
//   - needs half a node or more → SHARD_GRAD_OP (gather once per step,
//     keep params through backward)
func Advise(cfg ViTConfig, nodes int) (Plan, string) {
	m := Frontier()
	w := ViTWorkload(cfg, 32)
	// Models beyond ~4B parameters train with activation checkpointing
	// on the real system (Section IV-D's ViT-15B runs require it).
	if cfg.EncoderParams() > 4e9 {
		w.ActCheckpoint = true
	}
	min := MinGPUs(w, m)
	if min == 0 && !w.ActCheckpoint {
		w.ActCheckpoint = true
		min = MinGPUs(w, m)
	}
	switch {
	case min == 0:
		return BestPractice(FullShard, 0), fmt.Sprintf(
			"%s does not fit even fully sharded at this batch; FULL_SHARD across all %d GCDs minimizes per-GPU state",
			cfg.Name, m.TotalGPUs(nodes))
	case min == 1:
		return BestPractice(HybridShard, 1), fmt.Sprintf(
			"%s fits on a single GCD: HYBRID_1GPU is the fastest data-parallel mode (per-block overlapped all-reduce, no sharding cost)",
			cfg.Name)
	case min <= 2 && nodes > 1:
		return BestPractice(HybridShard, m.GPUsPerNode), fmt.Sprintf(
			"%s fits on %d GCDs: shard within the node (HYBRID_%dGPUs) so only gradient shards cross the slow inter-node network",
			cfg.Name, min, m.GPUsPerNode)
	case min <= 2:
		return BestPractice(HybridShard, min), fmt.Sprintf(
			"%s fits on %d GCDs of a single node: the smallest sharding group minimizes collective cost", cfg.Name, min)
	default:
		return BestPractice(ShardGradOp, 0), fmt.Sprintf(
			"%s needs %d+ GCDs: SHARD_GRAD_OP gathers parameters once per step and scales best (Section IV-D)",
			cfg.Name, min)
	}
}

// ---- Inference serving (internal/serve) --------------------------------

// ServeConfig is the dynamic batcher's policy: max batch size,
// max-wait deadline, bounded admission queue, engine count.
type ServeConfig = serve.Config

// ServeModel is the served artifact: encoder weights plus optional
// fitted probe heads, shared read-only across inference engines.
type ServeModel = serve.Model

// ServeKind selects a request's workload.
type ServeKind = serve.Kind

// The three served workloads.
const (
	ServeEmbed    = serve.Embed
	ServeClassify = serve.Classify
	ServeSegment  = serve.Segment
)

// Server is the wall-clock inference server (Submit/Drain): the same
// batcher policy as ServeVirtual and ServeSimulate, stepped by the host
// clock.
type Server = serve.Server

// ServeResponse carries one request's payload and latency trace.
type ServeResponse = serve.Response

// ServeArrival is one scheduled load-generator request.
type ServeArrival = serve.Arrival

// ServeLatencyModel prices one batch execution (launch + per-item).
type ServeLatencyModel = serve.LatencyModel

// ServeRunResult is one complete serving run — wall-clock, virtual or
// simulated: responses, batch log and makespan.
type ServeRunResult = serve.RunResult

// ServeReport summarizes a run (p50/p99, throughput, occupancy).
type ServeReport = serve.Report

// ServeClosedLoopSpec describes a closed-loop load test.
type ServeClosedLoopSpec = serve.ClosedLoop

// DefaultServeConfig returns a modest single-engine batcher.
func DefaultServeConfig() ServeConfig { return serve.DefaultConfig() }

// NewServeModel builds a servable model with fresh seed-derived
// weights (the demo path).
func NewServeModel(cfg MAEConfig, seed uint64) *ServeModel { return serve.NewModel(cfg, seed) }

// ServeModelFromState loads the fp32 master weights of a training
// checkpoint (LoadTrainState) into a servable model.
func ServeModelFromState(cfg MAEConfig, st *TrainState) (*ServeModel, error) {
	return serve.NewModelFromState(cfg, st)
}

// NewInferenceServer starts the wall-clock server over the shared
// model.
func NewInferenceServer(cfg ServeConfig, m *ServeModel) (*Server, error) {
	return serve.NewServer(cfg, m)
}

// ServeVirtual executes a serving run on a virtual clock: real
// compute, modeled time — deterministic to the last float.
func ServeVirtual(cfg ServeConfig, lat ServeLatencyModel, m *ServeModel, arrivals []ServeArrival) (*ServeRunResult, error) {
	return serve.RunVirtual(cfg, lat, m, arrivals)
}

// ServeWall replays an open-loop schedule against a fresh wall-clock
// server in real time: real compute, measured time.
func ServeWall(cfg ServeConfig, m *ServeModel, arrivals []ServeArrival) (*ServeRunResult, error) {
	return serve.RunWall(cfg, m, arrivals)
}

// ServeSimulate runs the serving simulator: the same batcher policy on
// a virtual clock with no compute.
func ServeSimulate(cfg ServeConfig, lat ServeLatencyModel, arrivals []ServeArrival) (*ServeRunResult, error) {
	return serve.Simulate(cfg, lat, arrivals)
}

// ServeClosedLoop drives a closed-loop load test through the virtual
// executor.
func ServeClosedLoop(cfg ServeConfig, lat ServeLatencyModel, m *ServeModel, cl ServeClosedLoopSpec) (*ServeRunResult, error) {
	return serve.RunClosedLoop(cfg, lat, m, cl)
}

// ServePoissonArrivals builds a deterministic open-loop Poisson
// request schedule.
func ServePoissonArrivals(rate float64, n int, mix []ServeKind, image func(i int) []float32, seed uint64) []ServeArrival {
	return serve.PoissonArrivals(rate, n, mix, image, seed)
}

// DefaultServeLatency prices batches for enc on the asserted
// laptop-class host.
func DefaultServeLatency(enc ViTConfig) ServeLatencyModel { return serve.DefaultLatency(enc) }

// ServeLatencyFromProfile prices batches with a measured hardware
// profile (cmd/calibrate output) instead of asserted constants.
func ServeLatencyFromProfile(p *HardwareProfile, enc ViTConfig) (ServeLatencyModel, error) {
	return serve.LatencyFromProfile(p, enc)
}

// ServeSummarize reduces a serving run of any form to its report.
func ServeSummarize(label string, res *ServeRunResult) ServeReport {
	return serve.Summarize(label, res)
}

// ServeRenderTable formats reports as the fixed-width p50/p99 table
// cmd/serve prints.
func ServeRenderTable(reports []ServeReport) string { return serve.RenderTable(reports) }
