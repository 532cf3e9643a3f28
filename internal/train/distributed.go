package train

import (
	"fmt"
	"math"
	"time"

	"repro/internal/dist"
	"repro/internal/fsdp"
	"repro/internal/geodata"
	"repro/internal/mae"
	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/trace"
)

// DistConfig configures pretraining over internal/dist on any world,
// one rank included (Pretrain is that call). The embedded
// PretrainConfig is interpreted globally: BatchSize is the global batch
// (split evenly across ranks), and the learning-rate schedule, epochs
// and clipping are functions of the global batch and step alone — an
// N-rank run reproduces the one-rank loss trajectory up to the
// floating-point reassociation of the ring reductions.
type DistConfig struct {
	PretrainConfig
	// Ranks is the data-parallel world size (in-process goroutine
	// ranks). BatchSize must divide evenly by Ranks.
	Ranks int
	// Plan selects the gradient/optimizer synchronization strategy; the
	// full Section III-C matrix executes, exactly as fsdp.Plan's table
	// describes it. The zero value defaults to fsdp.DefaultDDP().
	Plan fsdp.Plan
	// Precision selects the numeric mode, orthogonal to Plan: FP32 (the
	// zero value) runs everything in float32; BF16 executes the paper's
	// AMP-style recipe — bf16 working weights and bf16 collective
	// payloads (half the wire bytes) over fp32 master weights and Adam
	// state, with dynamic loss scaling.
	Precision Precision
	// Overlap launches each gradient bucket's collective the moment the
	// layer-granular backward finalizes its range, on internal/dist's
	// issue queues, and waits on all handles only before
	// clipping/optimizer — the executed form of FSDP hiding collective
	// latency behind backward compute. Overlap on and off run the
	// identical operations in the identical issue order, so they are
	// bit-for-bit the same trajectory with the same wire bytes; only
	// the wall-clock decomposition (ComputeSec vs ExposedCommSec)
	// changes.
	Overlap bool
	// AccumSteps enables micro-batch gradient accumulation: each
	// optimizer step runs AccumSteps forward/backward micro-steps of
	// BatchSize global samples each, accumulating gradients locally,
	// and fires the gradient collectives, loss-scale bookkeeping and
	// optimizer exactly once per window — so the effective global batch
	// is BatchSize·AccumSteps at unchanged per-step wire traffic.
	// Under FULL_SHARD/HYBRID the parameter reshard + backward
	// re-gather also runs once per window (on its final micro-step),
	// keeping measured bytes equal to fsdp.TrafficPerStep per optimizer
	// step. 0 or 1 disables accumulation.
	AccumSteps int
	// BucketBytes sets the gradient bucket size (wire bytes) for every
	// strategy, enabling multi-bucket overlap for the sharded
	// schedules: each bucket is reduce-scattered independently, and a
	// rank's optimizer shard becomes its chunk of every bucket (the
	// same total volume as the contiguous layout). 0 keeps the default
	// — DDP buckets by Plan.DDPBucketBytes, the sharded strategies use
	// one whole-buffer bucket.
	BucketBytes int
	// Options configure the world the ranks run in, as dist.New takes
	// them: Link prices each executed collective (dist.Stats measured vs
	// modeled; zero defaults to dist.DefaultLink(Ranks)); Throttle > 0
	// realizes each collective's α–β modeled time as an executed delay,
	// the congested-link mode under which overlap's hidden latency
	// becomes measurable in ExposedCommSec and the bench-dist records;
	// ThrottleSkew multiplies Throttle per rank (stragglers); Fault arms
	// the planned rank death that exercises the abort machinery
	// deterministically, so the run returns an error wrapping
	// dist.ErrInjectedFault, which PretrainElastic catches to resume.
	dist.Options
	// LossScale tunes the BF16 dynamic loss scaler; zero fields take
	// the opt package defaults (2¹⁶ initial, ×2 growth, ×0.5 backoff,
	// growth interval 2000). Under AccumSteps the scaler's overflow
	// verdict and growth/backoff apply once per optimizer step — over
	// the whole accumulation window — never per micro-step.
	LossScale LossScaleConfig
	// Resume restores a periodic snapshot of a previous run (the state
	// OnCheckpoint received, possibly round-tripped through
	// SaveTrainState/LoadTrainState) and continues from its epoch
	// boundary. The model, schedule, precision and accumulation window
	// must match the interrupted run's; the world and plan are free — the
	// state is canonical flat state, so any world under any plan cuts its
	// spans out of the same tensors. At the interrupted run's world and
	// plan the continuation is bitwise-identical to a run that never
	// stopped. No init broadcast is sent on resume: every rank restores
	// the identical state deterministically.
	Resume *TrainState
	// CheckpointEvery captures a TrainState snapshot after every epoch
	// whose 1-based number divides by it (0 disables) and hands it to
	// OnCheckpoint. The final epoch is not re-captured —
	// DistResult.State already is that snapshot. Checkpointing is
	// collective-free (two barriers, no ring traffic), so it does not
	// shift the Fault plan's collective indices.
	CheckpointEvery int
	// OnCheckpoint receives each periodic snapshot (an independent deep
	// copy, stamped like DistResult.State) together with the wall-clock
	// cost of capturing it. Called on rank 0's goroutine while the other
	// ranks wait at a barrier; nil discards the snapshots.
	OnCheckpoint func(st *TrainState, captureWall time.Duration)
}

// DefaultDistPretrain returns the paper's recipe for the given MAE
// config, split across ranks with the DDP baseline plan.
func DefaultDistPretrain(m mae.Config, ranks int) DistConfig {
	return DistConfig{
		PretrainConfig: DefaultPretrain(m),
		Ranks:          ranks,
		Plan:           fsdp.DefaultDDP(),
	}
}

// DistResult extends PretrainResult with the distributed-execution
// telemetry: the measured-vs-modeled collective accounting and the
// per-step traffic the fsdp simulator predicts for the same plan.
type DistResult struct {
	PretrainResult
	// Ranks is the world size the run executed with.
	Ranks int
	// Precision is the numeric mode the run executed with.
	Precision Precision
	// Comm is the World's per-collective accounting: calls, bytes each
	// rank actually sent around the ring, and the α–β model's
	// prediction for the same calls.
	Comm dist.Stats
	// CollectiveCalls is how many collectives rank 0 entered over the
	// run — the sequence a DistConfig.Fault Call indexes into. Probe an
	// uninterrupted run's count to aim a fault at a chosen fraction of
	// the schedule (the ranks' counts are symmetric in every strategy).
	CollectiveCalls int64
	// Traffic is fsdp.TrafficPerStep for this plan/world/model at this
	// precision's wire width — the per-step wire bytes the Section IV
	// simulator charges *per optimizer step* (gradient accumulation
	// does not change it: collectives fire once per window). The
	// executed byte counters in Comm match it exactly:
	// Comm.<op>.MeasuredWireBytes == Traffic.<op>Bytes × Steps.
	Traffic fsdp.Traffic
	// WallSec is rank 0's wall-clock inside the training loop;
	// ExposedCommSec is the part it spent blocked in per-step
	// collectives or waiting on their handles — communication
	// not hidden behind compute — and ComputeSec is the remainder
	// (forward/backward/optimizer plus the input pipeline). This is
	// the executed counterpart of the fsdp simulator's
	// ComputeTime/ExposedComm decomposition; see DistResult.Breakdown.
	WallSec, ComputeSec, ExposedCommSec float64
	// FinalLossScale, ScaleBackoffs and SkippedSteps report the BF16
	// dynamic loss scaler: the scale after the last step, how many
	// times it backed off, and how many optimizer steps were skipped on
	// overflow (all zero under FP32).
	FinalLossScale float64
	ScaleBackoffs  int
	SkippedSteps   int
	// ActivationBytes is rank 0's recording-arena footprint after the
	// run (mae.Model.ActivationBytes): the activation memory one
	// step's forward and backward hold on a rank.
	ActivationBytes int
	// State is the complete training state at the end of the run —
	// feed it to DistConfig.Resume (or SaveTrainStateFile) to continue
	// training bitwise-identically.
	State *TrainState

	// replicas holds every rank's model so tests can assert the ranks
	// stayed bit-identical.
	replicas []*mae.Model
}

// Breakdown summarizes the executed wall-clock decomposition as a
// trace.ExecBreakdown — the measured row next to the simulator's
// Result.ComputeTime/ExposedComm columns.
func (r *DistResult) Breakdown(label string) trace.ExecBreakdown {
	return trace.NewExecBreakdown(label, r.Steps, r.WallSec, r.ExposedCommSec)
}

// Resolve checks every field of cfg that needs no dataset — the model,
// world, plan, global-batch split, precision, the schedule and
// optimizer numbers, the fault and straggler targets — and returns the
// plan normalized (zero value → DefaultDDP, DDP's default bucket size).
// PretrainDistributed and WorkloadFor call it first; a command calls it
// to reject bad flags before it prints or loads anything.
func (cfg DistConfig) Resolve() (fsdp.Plan, error) {
	plan := cfg.Plan
	if cfg.BatchSize <= 0 || cfg.Epochs <= 0 {
		return plan, fmt.Errorf("train: non-positive batch size or epochs")
	}
	if err := cfg.MAE.Validate(); err != nil {
		return plan, fmt.Errorf("train: %w", err)
	}
	if cfg.Ranks < 1 {
		return plan, fmt.Errorf("train: non-positive rank count %d", cfg.Ranks)
	}
	if plan == (fsdp.Plan{}) {
		plan = fsdp.DefaultDDP()
	}
	if plan.Strategy == fsdp.DDP && plan.DDPBucketBytes <= 0 {
		plan.DDPBucketBytes = fsdp.DefaultDDP().DDPBucketBytes
	}
	if err := plan.Validate(cfg.Ranks); err != nil {
		return plan, fmt.Errorf("train: %w", err)
	}
	if cfg.BatchSize <= 0 || cfg.BatchSize%cfg.Ranks != 0 {
		return plan, fmt.Errorf("train: global batch %d not divisible by %d ranks", cfg.BatchSize, cfg.Ranks)
	}
	if !cfg.Precision.valid() {
		return plan, fmt.Errorf("train: unknown precision %v", cfg.Precision)
	}
	if cfg.AccumSteps < 0 || cfg.BucketBytes < 0 || cfg.Throttle < 0 {
		return plan, fmt.Errorf("train: negative AccumSteps, BucketBytes or Throttle")
	}
	if cfg.MaxStepsPerEpoch < 0 {
		return plan, fmt.Errorf("train: negative MaxStepsPerEpoch %d", cfg.MaxStepsPerEpoch)
	}
	if cfg.Workers < 0 {
		return plan, fmt.Errorf("train: negative Workers %d", cfg.Workers)
	}
	if !(cfg.BaseLR >= 0) || math.IsInf(cfg.BaseLR, 1) { // !(lr >= 0) catches NaN
		return plan, fmt.Errorf("train: BaseLR %v not finite and non-negative", cfg.BaseLR)
	}
	for _, v := range []float64{cfg.WeightDecay, cfg.ClipNorm} {
		if !(v >= 0) || math.IsInf(v, 1) { // !(v >= 0) catches NaN
			return plan, fmt.Errorf("train: WeightDecay %v or ClipNorm %v not finite and non-negative", cfg.WeightDecay, cfg.ClipNorm)
		}
	}
	if cfg.Fault.Armed() && (cfg.Fault.Rank < 0 || cfg.Fault.Rank >= cfg.Ranks) {
		return plan, fmt.Errorf("train: fault plan targets rank %d of a %d-rank world", cfg.Fault.Rank, cfg.Ranks)
	}
	for rk, s := range cfg.ThrottleSkew {
		if rk < 0 || rk >= cfg.Ranks {
			return plan, fmt.Errorf("train: throttle skew targets rank %d of a %d-rank world", rk, cfg.Ranks)
		}
		if s <= 0 {
			return plan, fmt.Errorf("train: non-positive throttle skew %g for rank %d", s, rk)
		}
	}
	return plan, nil
}

// checkResume validates cfg.Resume against the run it is asked to
// continue, before any rank spawns: a well-formed state, captured at an
// epoch boundary of this schedule, under this precision and
// accumulation window. The world and plan are not checked: a state has
// no layout to mismatch them.
func (run *distRun) checkResume() error {
	resume, cfg := run.cfg.Resume, &run.cfg
	if resume == nil {
		return nil
	}
	if err := resume.validate(); err != nil {
		return err
	}
	if resume.Epoch < 1 || resume.Epoch >= cfg.Epochs {
		return fmt.Errorf("train: resume epoch %d outside [1, %d)", resume.Epoch, cfg.Epochs)
	}
	if resume.Step != resume.Epoch*run.stepsPerEpoch {
		return fmt.Errorf("train: resume step %d is not epoch %d × %d steps/epoch (schedule mismatch)",
			resume.Step, resume.Epoch, run.stepsPerEpoch)
	}
	if resume.Precision != cfg.Precision {
		return fmt.Errorf("train: resume state captured under %v, configuration is %v",
			resume.Precision, cfg.Precision)
	}
	if stAccum := max(resume.AccumSteps, 1); stAccum != run.accum {
		return fmt.Errorf("train: resume state captured with AccumSteps %d, configuration has %d",
			stAccum, run.accum)
	}
	run.startEpoch = resume.Epoch
	return nil
}

// PretrainDistributed runs MAE pretraining SPMD across cfg.Ranks
// in-process ranks: seed-identical replicas synchronized by a parameter
// broadcast at init, a rank-sharded sampler over the same global batch
// sequence at every world size, per-rank forward/backward with the
// global batch's mask stream, and gradient/optimizer synchronization
// per cfg.Plan (fsdp.Plan documents the strategies; rankState.step is
// the one optimizer phase they all run). The returned model is rank 0's
// replica (all replicas are bit-identical after every step — in the
// hybrid strategies the replica groups' all-reduce makes this hold
// across shard groups too).
//
// Under Precision: BF16 the same schedules run in the executed
// mixed-precision mode: the model computes on bf16-valued working
// weights, every gradient reduction and parameter gather moves bf16
// payloads over the dist layer's uint16 wire (exactly half the fp32
// bytes, still equal to the simulator's dtype-aware accounting), AdamW
// updates fp32 master weights, and a dynamic loss scaler skips steps
// whose scaled gradients overflow.
//
// Under Overlap each gradient bucket's collective launches the moment
// the layer-granular backward (mae.BackwardStepLayers) finalizes its
// flat range, and the loop waits on every handle only before
// clipping/optimizer; under AccumSteps N micro-batches accumulate into
// one optimizer step with collectives firing once per window. Both are
// bitwise-neutral: overlap on/off and any bucket split train identical
// trajectories, and measured wire bytes stay exactly equal to
// fsdp.TrafficPerStep per optimizer step.
func PretrainDistributed(cfg DistConfig, ds *geodata.Dataset) (*DistResult, error) {
	return pretrainDistributed(cfg, ds, true)
}

// pretrainDistributed is PretrainDistributed. With capture false the
// run neither allocates nor fills DistResult.State, which stays nil —
// three flat copies of the parameter space that Pretrain would only
// throw away — so cfg must not ask for periodic checkpoints.
func pretrainDistributed(cfg DistConfig, ds *geodata.Dataset, capture bool) (*DistResult, error) {
	plan, err := cfg.Resolve()
	if err != nil {
		return nil, err
	}
	n := cfg.Ranks
	run := &distRun{cfg: cfg, plan: plan, ds: ds, accum: max(cfg.AccumSteps, 1),
		frontier: backwardFrontiers(cfg.workload())}
	run.stepsPerEpoch = ds.TrainCount / (cfg.BatchSize * run.accum)
	if cfg.MaxStepsPerEpoch > 0 && run.stepsPerEpoch > cfg.MaxStepsPerEpoch {
		run.stepsPerEpoch = cfg.MaxStepsPerEpoch
	}
	if run.stepsPerEpoch == 0 {
		return nil, fmt.Errorf("train: dataset smaller than one optimizer step's accumulation window")
	}
	if err := run.checkResume(); err != nil {
		return nil, err
	}
	run.sched = opt.CosineSchedule{
		Base:        opt.ScaledLR(cfg.BaseLR, cfg.BatchSize*run.accum),
		MinLR:       0,
		WarmupSteps: cfg.WarmupEpochs * run.stepsPerEpoch,
		TotalSteps:  cfg.Epochs * run.stepsPerEpoch,
	}
	run.world = dist.New(n, cfg.Options)
	res := &DistResult{Ranks: n, Precision: cfg.Precision}
	if capture {
		res.State = &TrainState{}
	}
	res.LossCurve.Name = cfg.MAE.Encoder.Name + " pretrain loss"
	res.EpochLoss.Name = cfg.MAE.Encoder.Name + " epoch loss"
	res.replicas = make([]*mae.Model, n)
	run.res = res

	start := time.Now()
	err = run.world.Run(func(r *dist.Rank) error {
		s, err := run.newRank(r)
		if err != nil {
			return err
		}
		s.train()
		return nil
	})
	if err != nil {
		return nil, err
	}

	res.Model = res.replicas[0]
	res.ActivationBytes = res.Model.ActivationBytes()
	res.Comm = run.world.Stats()
	res.CollectiveCalls = run.world.CollectiveCalls(0)
	res.Traffic = fsdp.TrafficPerStep(plan, n, nn.CountParams(res.Model.Params()), cfg.Precision.WireBytes())
	elapsed := time.Since(start).Seconds()
	if elapsed > 0 {
		res.ImagesPerSec = float64(res.Steps*cfg.BatchSize*run.accum) / elapsed
	}
	return res, nil
}
