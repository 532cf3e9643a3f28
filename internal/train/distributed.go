package train

import (
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/comm"
	"repro/internal/dataload"
	"repro/internal/dist"
	"repro/internal/fsdp"
	"repro/internal/geodata"
	"repro/internal/mae"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/rng"
	"repro/internal/tensor"
	"repro/internal/trace"
)

// DistConfig configures real multi-rank pretraining over internal/dist.
// The embedded PretrainConfig is interpreted globally: BatchSize is the
// global batch (split evenly across ranks), and the learning-rate
// schedule, epochs and clipping act exactly as in the single-rank
// Pretrain — an N-rank run reproduces the single-rank loss trajectory
// up to the floating-point reassociation of the ring reductions.
type DistConfig struct {
	PretrainConfig
	// Ranks is the data-parallel world size (in-process goroutine
	// ranks). BatchSize must divide evenly by Ranks.
	Ranks int
	// Plan selects the gradient/optimizer synchronization strategy —
	// the full Section III-C matrix executes:
	//
	//	DDP, NO_SHARD, HYBRID_1GPU — replicated optimizer; gradients
	//	    all-reduced (DDP in fixed-size buckets of DDPBucketBytes)
	//	SHARD_GRAD_OP — ZeRO-1: gradients reduce-scattered, AdamW state
	//	    sharded per rank, updated parameters all-gathered
	//	FULL_SHARD — ZeRO-3-style: parameters additionally resharded
	//	    after forward and re-gathered in backward
	//	HYBRID_kGPUs (k>1) — FULL_SHARD inside k-rank shard groups,
	//	    gradient-shard all-reduce across the world/k replica groups
	//
	// The zero value defaults to fsdp.DefaultDDP().
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
	// Throttle > 0 realizes each collective's α–β modeled time as an
	// executed delay (dist.Options.Throttle): the congested-link mode
	// under which overlap's hidden latency becomes measurable in
	// ExposedCommSec and the bench-dist records.
	Throttle float64
	// LossScale tunes the BF16 dynamic loss scaler; zero fields take
	// the opt package defaults (2¹⁶ initial, ×2 growth, ×0.5 backoff,
	// growth interval 2000). Under AccumSteps the scaler's overflow
	// verdict and growth/backoff apply once per optimizer step — over
	// the whole accumulation window — never per micro-step.
	LossScale LossScaleConfig
	// Resume restores the training state captured by a previous run
	// (DistResult.State, possibly round-tripped through
	// SaveTrainState/LoadTrainState) and continues from its epoch
	// boundary. The configuration must match the interrupted run's —
	// same model, schedule, world, plan and precision — and the
	// continuation is then bitwise-identical to a run that never
	// stopped. No init broadcast is sent on resume: every rank restores
	// the identical state deterministically.
	Resume *TrainState
	// StopAfterEpoch interrupts the run once that many epochs have
	// completed (0 = run all cfg.Epochs). The learning-rate schedule,
	// sampler and mask streams are still laid out for the full
	// cfg.Epochs, so the returned State resumes the remainder of the
	// same run — the checkpoint/restart pattern.
	StopAfterEpoch int
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
	// Fault arms dist.Options.Fault: the planned rank death that
	// exercises the abort machinery deterministically (see
	// dist.FaultPlan). The run returns an error wrapping
	// dist.ErrInjectedFault; PretrainElastic catches it and resumes.
	Fault dist.FaultPlan
	// ThrottleSkew arms dist.Options.ThrottleSkew: per-rank multipliers
	// on Throttle realizing stragglers (requires Throttle > 0).
	ThrottleSkew map[int]float64
	// Link is the α–β link model used to price each executed collective
	// (dist.Stats measured vs modeled). Zero defaults to
	// dist.DefaultLink(Ranks).
	Link comm.Params
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

// execMode is the synchronization schedule a plan compiles to.
type execMode int

const (
	// execReplicated: gradients all-reduced, replicated AdamW
	// (DDP, NO_SHARD, HYBRID_1GPU).
	execReplicated execMode = iota
	// execZeRO1: gradients reduce-scattered, rank-sharded AdamW,
	// updated parameters all-gathered (SHARD_GRAD_OP).
	execZeRO1
	// execResharded: as execZeRO1 but parameters are additionally
	// dropped after forward and re-gathered for backward, inside a
	// shard group that may be smaller than the world
	// (FULL_SHARD, HYBRID_kGPUs with k>1).
	execResharded
)

// compilePlan maps a validated fsdp.Plan onto the executor's schedule:
// the mode plus the shard-group size (world for FULL_SHARD, k for
// HYBRID_kGPUs, irrelevant otherwise).
func compilePlan(plan fsdp.Plan, ranks int) (execMode, int, error) {
	switch plan.Strategy {
	case fsdp.DDP, fsdp.NoShard:
		return execReplicated, 1, nil
	case fsdp.ShardGradOp:
		return execZeRO1, ranks, nil
	case fsdp.FullShard:
		return execResharded, ranks, nil
	case fsdp.HybridShard:
		if plan.GroupSize == 1 {
			// HYBRID_1GPU: a sharding group of one is pure data
			// parallelism — replicated state, world-wide all-reduce.
			return execReplicated, 1, nil
		}
		return execResharded, plan.GroupSize, nil
	default:
		return 0, 0, fmt.Errorf("train: unknown strategy %v", plan.Strategy)
	}
}

// PretrainDistributed runs MAE pretraining SPMD across cfg.Ranks
// in-process ranks: seed-identical replicas synchronized by a parameter
// broadcast at init, a rank-sharded sampler over the same global batch
// sequence as the single-rank run, per-rank forward/backward with the
// global batch's mask stream, and gradient/optimizer synchronization
// per cfg.Plan. The returned model is rank 0's replica (all replicas
// are bit-identical after every step — in the hybrid strategies the
// replica groups' all-reduce makes this hold across shard groups too).
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
	if err := cfg.MAE.Validate(); err != nil {
		return nil, fmt.Errorf("train: %w", err)
	}
	if cfg.Ranks < 1 {
		return nil, fmt.Errorf("train: non-positive rank count %d", cfg.Ranks)
	}
	if cfg.BatchSize <= 0 || cfg.Epochs <= 0 {
		return nil, fmt.Errorf("train: non-positive batch size or epochs")
	}
	if cfg.BatchSize%cfg.Ranks != 0 {
		return nil, fmt.Errorf("train: global batch %d not divisible by %d ranks", cfg.BatchSize, cfg.Ranks)
	}
	if !cfg.Precision.valid() {
		return nil, fmt.Errorf("train: unknown precision %v", cfg.Precision)
	}
	if cfg.AccumSteps < 0 || cfg.BucketBytes < 0 || cfg.Throttle < 0 {
		return nil, fmt.Errorf("train: negative AccumSteps, BucketBytes or Throttle")
	}
	accum := cfg.AccumSteps
	if accum < 1 {
		accum = 1
	}
	plan := cfg.Plan
	if plan == (fsdp.Plan{}) {
		plan = fsdp.DefaultDDP()
	}
	if plan.Strategy == fsdp.DDP && plan.DDPBucketBytes <= 0 {
		plan.DDPBucketBytes = fsdp.DefaultDDP().DDPBucketBytes
	}
	mode, group, err := compilePlan(plan, cfg.Ranks)
	if err != nil {
		return nil, err
	}
	if err := plan.Validate(cfg.Ranks); err != nil {
		return nil, fmt.Errorf("train: %w", err)
	}

	n := cfg.Ranks
	local := cfg.BatchSize / n
	stepsPerEpoch := ds.TrainCount / (cfg.BatchSize * accum)
	if cfg.MaxStepsPerEpoch > 0 && stepsPerEpoch > cfg.MaxStepsPerEpoch {
		stepsPerEpoch = cfg.MaxStepsPerEpoch
	}
	if stepsPerEpoch == 0 {
		return nil, fmt.Errorf("train: dataset smaller than one optimizer step's accumulation window")
	}
	resume := cfg.Resume
	startEpoch := 0
	if resume != nil {
		if resume.Epoch < 1 || resume.Epoch >= cfg.Epochs {
			return nil, fmt.Errorf("train: resume epoch %d outside [1, %d)", resume.Epoch, cfg.Epochs)
		}
		if resume.Step != resume.Epoch*stepsPerEpoch {
			return nil, fmt.Errorf("train: resume step %d is not epoch %d × %d steps/epoch (schedule mismatch)",
				resume.Step, resume.Epoch, stepsPerEpoch)
		}
		if resume.Precision != cfg.Precision {
			return nil, fmt.Errorf("train: resume state captured under %v, configuration is %v",
				resume.Precision, cfg.Precision)
		}
		if stAccum := max(resume.AccumSteps, 1); stAccum != accum {
			return nil, fmt.Errorf("train: resume state captured with AccumSteps %d, configuration has %d",
				stAccum, accum)
		}
		// Topology stamps: a state sharded for another world or strategy
		// must go through Reshard (which restamps it) before resuming.
		// Zero stamps — states predating elasticity — act as wildcards.
		if resume.World != 0 && resume.World != cfg.Ranks {
			return nil, fmt.Errorf("train: resume state captured at world %d, configuration has %d ranks — re-shard it first (train.Reshard)",
				resume.World, cfg.Ranks)
		}
		if resume.Strategy != "" && resume.Strategy != plan.Name() {
			return nil, fmt.Errorf("train: resume state captured under %s, configuration runs %s — re-shard it first (train.Reshard)",
				resume.Strategy, plan.Name())
		}
		startEpoch = resume.Epoch
	}
	if cfg.Fault.Armed() && (cfg.Fault.Rank < 0 || cfg.Fault.Rank >= cfg.Ranks) {
		return nil, fmt.Errorf("train: fault plan targets rank %d of a %d-rank world", cfg.Fault.Rank, cfg.Ranks)
	}
	for rk, s := range cfg.ThrottleSkew {
		if rk < 0 || rk >= cfg.Ranks {
			return nil, fmt.Errorf("train: throttle skew targets rank %d of a %d-rank world", rk, cfg.Ranks)
		}
		if s <= 0 {
			return nil, fmt.Errorf("train: non-positive throttle skew %g for rank %d", s, rk)
		}
	}
	lastEpoch := cfg.Epochs
	if cfg.StopAfterEpoch > 0 && cfg.StopAfterEpoch < cfg.Epochs {
		lastEpoch = cfg.StopAfterEpoch
	}
	if lastEpoch <= startEpoch {
		return nil, fmt.Errorf("train: stop epoch %d does not advance past resume epoch %d", lastEpoch, startEpoch)
	}
	bf16 := cfg.Precision == BF16
	sched := opt.CosineSchedule{
		Base:        opt.ScaledLR(cfg.BaseLR, cfg.BatchSize*accum),
		MinLR:       0,
		WarmupSteps: cfg.WarmupEpochs * stepsPerEpoch,
		TotalSteps:  cfg.Epochs * stepsPerEpoch,
	}

	world := dist.New(n, dist.Options{
		Link:         cfg.Link,
		Throttle:     cfg.Throttle,
		ThrottleSkew: cfg.ThrottleSkew,
		Fault:        cfg.Fault,
	})
	res := &DistResult{Ranks: n, Precision: cfg.Precision}
	res.LossCurve.Name = cfg.MAE.Encoder.Name + " pretrain loss"
	res.EpochLoss.Name = cfg.MAE.Encoder.Name + " epoch loss"
	models := make([]*mae.Model, n)

	// End-of-run training state, allocated once the flat dimension is
	// known; ranks write their disjoint master/moment shards into it.
	st := &TrainState{}
	var stOnce sync.Once

	allRanks := make([]int, n)
	for i := range allRanks {
		allRanks[i] = i
	}

	start := time.Now()
	err = world.Run(func(r *dist.Rank) error {
		// Every rank builds a replica from the same seed (which also
		// locks the mask streams together); the broadcast then enforces
		// bit-identical parameters from rank 0 regardless of how the
		// replica was initialized.
		model := mae.New(cfg.MAE, rng.New(cfg.Seed))
		models[r.ID()] = model
		params := model.Params()
		dim := opt.FlatDim(params)
		stOnce.Do(func() {
			st.Master = make([]float32, dim)
			st.OptM = make([]float32, dim)
			st.OptV = make([]float32, dim)
		})
		if resume != nil && len(resume.Master) != dim {
			return fmt.Errorf("train: resume state has %d master values, model has %d", len(resume.Master), dim)
		}

		// Shard layout and communicators. The replicated mode shards
		// nothing but still pads the flat gradient for uniform ring
		// chunks; the sharded modes partition the padded space across
		// the shard group, aligned so HYBRID's replica-group ring over
		// one shard also chunks uniformly.
		var (
			gradGroup *dist.Group // gradient-bucket collectives (world for replicated, shard group otherwise)
			replGroup *dist.Group // HYBRID gradient all-reduce across shard groups
		)
		part, err := partitionFor(plan, n, dim)
		if err != nil {
			return err
		}
		switch mode {
		case execReplicated:
			gradGroup = world.Subgroup(allRanks)
		default:
			repl := n / group
			// Shard groups are consecutive rank blocks (the paper's
			// intra-node placement); replica groups stride across them.
			first := r.ID() / group * group
			members := make([]int, group)
			for i := range members {
				members[i] = first + i
			}
			gradGroup = world.Subgroup(members)
			if mode == execResharded && repl > 1 {
				peers := make([]int, repl)
				for i := range peers {
					peers[i] = r.ID()%group + i*group
				}
				replGroup = world.Subgroup(peers)
			}
		}
		padded := part.Padded

		if resume == nil {
			initBuf := make([]float32, dim)
			if r.ID() == 0 {
				opt.PackValues(initBuf, params)
			}
			world.Subgroup(allRanks).Do(r, dist.Collective{Op: dist.OpBroadcast, Buf: initBuf}).Wait()
			opt.UnpackValues(params, initBuf)
		} else {
			// Every rank restores the identical fp32 master snapshot
			// and fast-forwards the deterministic mask stream past the
			// completed steps (micro-batches under accumulation) — no
			// broadcast needed.
			opt.UnpackValues(params, resume.Master)
			model.SkipMasks(resume.Step*accum, cfg.BatchSize)
		}

		flatG := make([]float32, padded)
		var wire []uint16
		if bf16 {
			wire = make([]uint16, padded)
		}
		// Rank 0 decomposes its loop wall-clock into compute vs exposed
		// communication; the other ranks carry a nil timer.
		var timer *phaseTimer
		if r.ID() == 0 {
			timer = &phaseTimer{}
		}
		eng, err := newSyncEngine(r, model, params, mode, cfg.Overlap,
			gradGroup, replGroup, group, flatG, wire, timer,
			bucketElemsFor(cfg.BucketBytes, plan.DDPBucketBytes,
				plan.Strategy == fsdp.DDP, cfg.Precision.WireBytes(), n, padded))
		if err != nil {
			return err
		}
		// ownSpans is what this rank's optimizer/checkpoint state
		// covers: its chunk of every bucket (sharded modes), or the
		// whole padded space (replicated BF16's full-range master).
		ownSpans := eng.spans
		ownLen := eng.shardLen
		if mode == execReplicated {
			ownSpans = []opt.Span{{Lo: 0, Hi: padded}}
			ownLen = padded
		}

		var (
			optim    *opt.AdamW        // FP32 replicated
			shardOpt *opt.ShardedAdamW // everything else
			flatW    []float32         // assembled working copy (sharded and BF16 modes)
			master   []float32         // BF16: fp32 master for the owned spans (shard-local)
			gBuf     []float32         // sharded: contiguous reduced-gradient shard
			wBuf     []float32         // sharded FP32: contiguous weight shard scratch
			scaler   *opt.LossScaler
		)
		if bf16 {
			scaler = opt.NewLossScaler(cfg.LossScale.Init, cfg.LossScale.Growth,
				cfg.LossScale.Backoff, cfg.LossScale.Interval)
			if resume != nil {
				scaler.Restore(resume.LossScale, resume.ScaleGoodSteps)
			}
		}
		switch {
		case mode == execReplicated && !bf16:
			optim = opt.NewAdamW(params, cfg.WeightDecay)
		case mode == execReplicated && bf16:
			// Full-range ShardedAdamW over a flat fp32 master: the same
			// adamwApply kernel as AdamW, but updating the master copy
			// while params hold the bf16 working weights.
			master = make([]float32, padded)
			opt.PackValues(master, params)
			flatW = make([]float32, padded)
			shardOpt = opt.NewShardedAdamW(params, cfg.WeightDecay, 0, padded)
			tensor.RoundBF16(flatW, master)
			opt.UnpackValues(params, flatW)
		default:
			flatW = make([]float32, padded)
			opt.PackValues(flatW, params)
			shardOpt = opt.NewShardedAdamWSpans(params, cfg.WeightDecay, ownSpans)
			gBuf = make([]float32, ownLen)
			wBuf = make([]float32, ownLen)
			if bf16 {
				// The rank's fp32 master is its owned spans; the whole
				// working copy (own spans included) is bf16-valued so
				// every rank computes on identical weights.
				master = make([]float32, ownLen)
				opt.GatherSpans(master, flatW, ownSpans)
				tensor.RoundBF16(flatW, flatW)
				opt.UnpackValues(params, flatW)
			}
		}
		if resume != nil && shardOpt != nil {
			// The unpadded checkpoint moments restore clipped at dim;
			// the pad tail of the freshly allocated moments stays zero.
			mLoc := make([]float32, ownLen)
			vLoc := make([]float32, ownLen)
			gatherSpansClipped(mLoc, resume.OptM, ownSpans, dim)
			gatherSpansClipped(vLoc, resume.OptV, ownSpans, dim)
			shardOpt.RestoreMoments(mLoc, vLoc)
			shardOpt.SetStep(resume.OptStep)
		} else if resume != nil {
			optim.ImportMoments(resume.OptM, resume.OptV)
			optim.SetStep(resume.OptStep)
		}

		// captureState writes this rank's share of the canonical flat
		// training state into st: rank 0 alone for the replicated modes,
		// the first shard block's disjoint clipped shards otherwise. The
		// caller separates these writes from rank 0's read (end of run:
		// Run's join; mid-run checkpoints: an explicit barrier).
		captureState := func() {
			switch {
			case optim != nil: // FP32 replicated
				if r.ID() == 0 {
					opt.PackValues(st.Master, params)
					optim.ExportMoments(st.OptM, st.OptV)
					st.OptStep = optim.StepCount()
				}
			case r.ID() < part.Shards:
				if bf16 {
					scatterSpansClipped(st.Master, master, ownSpans, dim)
				} else {
					gatherSpansClipped(wBuf, flatW, ownSpans, dim)
					scatterSpansClipped(st.Master, wBuf, ownSpans, dim)
				}
				mLoc := make([]float32, ownLen)
				vLoc := make([]float32, ownLen)
				shardOpt.CopyMoments(mLoc, vLoc)
				scatterSpansClipped(st.OptM, mLoc, ownSpans, dim)
				scatterSpansClipped(st.OptV, vLoc, ownSpans, dim)
				if r.ID() == 0 {
					st.OptStep = shardOpt.StepCount()
				}
			}
		}
		// stampState fills the scalar fields only rank 0 owns: the
		// progress counters, numeric mode, topology stamps and the
		// loss-scaler freeze.
		stampState := func(stepNow, epochsDone int) {
			st.Step = stepNow
			st.Epoch = epochsDone
			st.Precision = cfg.Precision
			st.AccumSteps = accum
			st.World = n
			st.Strategy = plan.Name()
			if scaler != nil {
				st.LossScale = scaler.Scale
				st.ScaleGoodSteps = scaler.GoodSteps()
			}
		}

		gen := ds.Gen
		loader := dataload.New(
			dataload.TrainSplit{D: ds, Count: ds.TrainCount, ImgLen: gen.ImageLen()},
			dataload.Config{
				BatchSize:  local,
				Workers:    cfg.Workers,
				Shuffle:    true,
				DropLast:   true,
				Seed:       cfg.Seed ^ 0xDA7A,
				ShardRank:  r.ID(),
				ShardWorld: n,
			})
		loader.SkipEpochs(startEpoch)

		// shardGroupSum totals a per-member value over the shard group,
		// whose members hold disjoint spans covering the whole flat space
		// — so their sums of squares all-reduce to the total the
		// single-rank clip computes.
		shardGroupSum := func(v float64) (total float64) {
			timer.comm(func() { total = gradGroup.AllReduceScalar(r, v) })
			return total
		}

		invN := float32(1) / float32(n)
		invAccum := float64(1) / float64(accum)
		loopStart := time.Now()
		step := startEpoch * stepsPerEpoch
		for epoch := startEpoch; epoch < lastEpoch; epoch++ {
			var epochLoss metrics.Meter
			micro := 0
			var lossSum float64
			for batch := range loader.EpochN(stepsPerEpoch * accum) {
				// All ranks draw the global batch's masks from their
				// lock-step streams and keep the local slice, so the
				// mask sequence matches the single-rank run.
				keep := model.DrawMasksRange(cfg.BatchSize, r.ID()*local, (r.ID()+1)*local)
				if micro == 0 {
					nn.ZeroGrads(params)
				}
				final := micro == accum-1
				lossSum += model.ForwardWithMask(batch.Images, batch.Size, keep)
				switch {
				case mode == execResharded && final:
					// Reshard once per optimizer step, after the
					// window's last forward: drop every parameter span
					// this rank does not own from the flat mirror,
					// exactly as FULL_SHARD frees gathered units.
					// Backward reads the live tensors from the
					// re-gathered mirror, so the all-gather must
					// genuinely restore the dropped spans — if it
					// moved wrong bytes, the zeros would reach the
					// model and the loss trajectory (checked against
					// the single-rank run) would diverge.
					opt.ScrubOutsideSpans(flatW, eng.spans)
					eng.allGatherParams(flatW)
					opt.UnpackValues(params, flatW)
				}
				if !final {
					// Accumulation micro-step: gradients pile up in the
					// parameter tensors; no collective fires and the
					// sharded modes keep the assembled parameters
					// resident (the executed no_sync window).
					model.BackwardStep()
					loader.Recycle(batch)
					micro++
					continue
				}

				// Final micro-step of the window: the layer-granular
				// backward launches each bucket's collective the moment
				// its accumulated gradients are final. The 1/(n·accum)
				// scale turns the cross-rank sum of per-micro means
				// into the global mean the single-rank run computes;
				// BF16 additionally multiplies in the loss scale before
				// gradients hit the narrow wire.
				gScale := invN
				if accum > 1 {
					gScale *= 1 / float32(accum)
				}
				scaleGrads := n > 1 || accum > 1
				var invScale float32
				if bf16 {
					// The scale the gradients will carry; Update may
					// move scaler.Scale before the unscale happens.
					invScale = 1 / float32(scaler.Scale)
					gScale = float32(scaler.Scale) * invN
					if accum > 1 {
						gScale *= 1 / float32(accum)
					}
					scaleGrads = true
				}
				eng.beginStep(gScale, scaleGrads)
				model.BackwardStepLayers(eng.onSegment)
				loader.Recycle(batch)
				eng.finishBackward()

				lr := sched.LR(step)
				switch {
				case mode == execReplicated && !bf16:
					opt.UnpackGrads(params, flatG)
					if cfg.ClipNorm > 0 {
						nn.ClipGradNorm(params, cfg.ClipNorm)
					}
					optim.Step(lr)
				case mode == execReplicated && bf16:
					// No collective needed for the verdict here: the
					// bf16 all-reduce leaves every rank with
					// bit-identical gradients, so the local check is
					// already the global one.
					if !scaler.Update(opt.HasNonFinite(flatG)) {
						tensor.Scale(flatG, flatG, invScale)
						// Every rank holds the whole gradient: the local
						// sum of squares is the global one. (The pad tail
						// is zero, before and after any scaling.)
						clipGradNorm(flatG[:dim], cfg.ClipNorm, func(sq float64) float64 { return sq })
						shardOpt.Step(lr, master, flatG)
						tensor.RoundBF16(flatW, master)
						opt.UnpackValues(params, flatW)
					}
				case !bf16: // sharded FP32
					eng.gatherShard(gBuf)
					clipGradNorm(gBuf, cfg.ClipNorm, shardGroupSum)
					opt.GatherSpans(wBuf, flatW, ownSpans)
					shardOpt.Step(lr, wBuf, gBuf)
					opt.ScatterSpans(flatW, wBuf, ownSpans)
					// Re-assemble the updated parameters. For the
					// resharded strategies this all-gather is the next
					// forward's parameter gather executed eagerly (the
					// executed analog of FSDP's prefetching): per-step
					// volumes are unchanged and every step ends with
					// bit-identical assembled replicas.
					eng.allGatherParams(flatW)
					opt.UnpackValues(params, flatW)
				default: // sharded BF16
					eng.gatherShard(gBuf)
					var overflow bool
					timer.comm(func() {
						overflow = r.AllReduceScalar(boolFlag(opt.HasNonFinite(gBuf))) > 0
					})
					if !scaler.Update(overflow) {
						tensor.Scale(gBuf, gBuf, invScale)
						clipGradNorm(gBuf, cfg.ClipNorm, shardGroupSum)
						shardOpt.Step(lr, master, gBuf)
						off := 0
						for _, sp := range ownSpans {
							tensor.RoundBF16(flatW[sp.Lo:sp.Hi], master[off:off+sp.Len()])
							off += sp.Len()
						}
					}
					// The parameter all-gather runs even on skipped
					// steps — it is idempotent, the working copy being
					// unchanged — so every optimizer step moves exactly
					// the wire bytes fsdp.TrafficPerStep charges.
					eng.allGatherParams(flatW)
					opt.UnpackValues(params, flatW)
				}

				var gLoss float64
				timer.comm(func() {
					gLoss = r.AllReduceScalar(lossSum*invAccum) / float64(n)
				})
				lossSum = 0
				micro = 0
				if r.ID() == 0 {
					epochLoss.Add(gLoss)
					res.LossCurve.Append(float64(step), gLoss)
				}
				step++
			}
			if r.ID() == 0 {
				res.EpochLoss.Append(float64(epoch), epochLoss.Mean())
				if cfg.Log != nil {
					fmt.Fprintf(cfg.Log, "epoch %3d/%d  loss %.4f  lr %.2e  [%d ranks, %s, %s]\n",
						epoch+1, cfg.Epochs, epochLoss.Mean(), sched.LR(step-1), n, plan.Name(), cfg.Precision)
				}
			}
			// Periodic checkpoint at the epoch boundary: all ranks write
			// their state shards, a barrier orders the writes before
			// rank 0 snapshots, a second barrier holds the next epoch's
			// writes back until the snapshot is taken. No collectives —
			// the fault plan's indices are checkpoint-invariant.
			if ce := cfg.CheckpointEvery; ce > 0 && (epoch+1)%ce == 0 && epoch+1 < lastEpoch {
				ckStart := time.Now()
				captureState()
				r.Barrier()
				if r.ID() == 0 {
					stampState(step, epoch+1)
					if cfg.OnCheckpoint != nil {
						cfg.OnCheckpoint(st.clone(), time.Since(ckStart))
					}
				}
				r.Barrier()
			}
		}

		// Capture the end-of-run training state: the ranks of the first
		// shard block hold disjoint fp32 master/moment shards covering
		// the whole flat space (for the replicated modes that block is
		// rank 0 alone). Run's join orders the writes before the caller
		// reads st.
		captureState()
		if r.ID() == 0 {
			res.Steps = step - startEpoch*stepsPerEpoch
			// One source of truth for the decomposition (incl. the
			// negative-residual clamp): the trace constructor.
			b := trace.NewExecBreakdown("", res.Steps, time.Since(loopStart).Seconds(), timer.exposed.Seconds())
			res.WallSec = b.WallSec
			res.ExposedCommSec = b.ExposedCommSec
			res.ComputeSec = b.ComputeSec
			stampState(step, lastEpoch)
			if scaler != nil {
				res.FinalLossScale = scaler.Scale
				res.ScaleBackoffs = scaler.Backoffs()
				res.SkippedSteps = scaler.Skipped()
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	res.Model = models[0]
	res.replicas = models
	res.Comm = world.Stats()
	res.CollectiveCalls = world.CollectiveCalls(0)
	res.Traffic = fsdp.TrafficPerStep(plan, n, opt.FlatDim(models[0].Params()), cfg.Precision.WireBytes())
	res.State = st
	elapsed := time.Since(start).Seconds()
	if elapsed > 0 {
		res.ImagesPerSec = float64(res.Steps*cfg.BatchSize*accum) / elapsed
	}
	return res, nil
}

// boolFlag maps an overflow verdict onto the scalar all-reduce domain.
func boolFlag(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// clipGradNorm is global-norm clipping over this rank's gradient shard
// g: reduce turns the shard's sum of squares into the global one, and g
// is scaled by clip/norm when the norm exceeds clip (0 disables).
func clipGradNorm(g []float32, clip float64, reduce func(float64) float64) {
	if clip <= 0 {
		return
	}
	if norm := math.Sqrt(reduce(sumSq(g))); norm > clip && norm > 0 {
		tensor.Scale(g, g, float32(clip/norm))
	}
}

// sumSq accumulates Σx² in float64, matching nn.GradL2Norm's
// accumulation precision.
func sumSq(x []float32) float64 {
	var s float64
	for _, v := range x {
		s += float64(v) * float64(v)
	}
	return s
}
