package train

import (
	"fmt"
	"math"
	"sync"
	"time"

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

// distRun is what the ranks of one PretrainDistributed call share: the
// resolved configuration and schedule, the world, and the result they
// fill (rank 0 the telemetry, the owner ranks their disjoint spans of
// res.State's tensors).
type distRun struct {
	cfg  DistConfig
	plan fsdp.Plan // cfg.Plan, resolved
	ds   *geodata.Dataset

	accum, stepsPerEpoch int
	startEpoch           int
	sched                opt.CosineSchedule

	// frontier is the unit table's backwardFrontiers: where each
	// backward completion event leaves the open flat gradient range.
	frontier []int

	world *dist.World
	res   *DistResult
	// stOnce allocates res.State's tensors once a rank knows the flat
	// dimension, if the run captures state (res.State non-nil).
	stOnce sync.Once
}

// rankState is one rank's training state. Strategy and precision are
// data here, not code paths: every rank owns a span list over the
// padded flat space — the whole [0, padded) when the plan shards
// nothing, its chunk of every gradient bucket otherwise — with one
// ShardedAdamW over those spans, and step runs the same sequence for
// every cell of the strategy × precision matrix.
type rankState struct {
	run    *distRun
	r      *dist.Rank
	model  *mae.Model
	params []*nn.Param

	// A gradient bucket is reduce-scattered over the shard group, then
	// its owned piece all-reduced over the replica group; a one-member
	// group has nothing to do, which is the whole difference between
	// the strategies (replicated: replica group only; ZeRO-1/FULL_SHARD:
	// shard group only; HYBRID: both).
	shardGroup, replGroup *dist.Group
	buckets               []gradBucket

	// sharded: the shard group has more than one member, so owned state
	// is partial — norms and verdicts reduce over the group, updated
	// parameters are all-gathered.
	sharded bool
	// own is the owned spans of the padded flat space, ascending: the
	// rank's piece of every bucket, adjacent pieces merged.
	own []opt.Span

	// flatW and flatG, padded, are the only home of the rank's parameters
	// and gradients: nn.FlattenParams made every Param's Value and Grad
	// windows of them, so forward, backward, the collectives and the
	// optimizer all work on the same bytes, in place. dim is their
	// unpadded length: [dim, padded) is the zero pad tail.
	flatW, flatG []float32
	dim          int
	wire         []uint16 // bf16 wire scratch (nil under FP32)
	// master is the fp32 master of the owned spans: flatW itself under
	// FP32, a shard-local buffer (SpansLen(own) long) under BF16, where
	// flatW holds its bf16 rounding.
	master []float32
	// image, sharded BF16 only, is wire, whose owned spans always hold
	// the bf16 bits of the owned working weights: the contribution the
	// parameter all-gather publishes as it lies. AdamW writes it beside
	// the working copy; refreshImage rewrites it where AdamW did not run.
	image  []uint16
	optim  *opt.ShardedAdamW
	scaler *opt.LossScaler // BF16 only

	// per-step state: the gradient scale, the next bucket to launch, and
	// the collectives in flight in the current phase — a step's gradient
	// reductions, or a parameter gather — drained by wait.
	gScale  float32
	next    int
	handles []*dist.Handle
	// exposed is the rank's exposed communication: the time it spent
	// blocked in handle waits and scalar all-reduces, each timed around
	// the blocking call (the init broadcast is not). The rest of the
	// training loop is compute (+ input pipeline).
	exposed time.Duration
}

// strided returns count ranks starting at first, stride apart.
func strided(first, count, stride int) []int {
	ranks := make([]int, count)
	for i := range ranks {
		ranks[i] = first + i*stride
	}
	return ranks
}

// newRank builds rank r's replica, communicators, flat buffers and
// optimizer, from the init broadcast or from cfg.Resume.
func (run *distRun) newRank(r *dist.Rank) (*rankState, error) {
	cfg, n, resume := &run.cfg, run.cfg.Ranks, run.cfg.Resume
	// Every rank builds a replica from the same seed, which locks the
	// mask streams together.
	model := mae.New(cfg.MAE, rng.New(cfg.Seed))
	run.res.replicas[r.ID()] = model
	params := model.Params()
	dim := nn.CountParams(params)
	run.stOnce.Do(func() {
		if st := run.res.State; st != nil {
			st.Master, st.OptM, st.OptV = make([]float32, dim), make([]float32, dim), make([]float32, dim)
		}
	})
	if resume != nil && len(resume.Master) != dim {
		return nil, fmt.Errorf("train: resume state has %d master values, model has %d", len(resume.Master), dim)
	}

	// Shard groups are consecutive rank blocks (the paper's intra-node
	// placement); replica groups stride across them. Either may be a
	// single rank: the plan's whole strategy is the two sizes.
	g := run.plan.ShardRanks(n)
	s := &rankState{run: run, r: r, model: model, params: params, dim: dim, sharded: g > 1,
		shardGroup: run.world.Subgroup(strided(r.ID()/g*g, g, 1)),
		replGroup:  run.world.Subgroup(strided(r.ID()%g, n/g, g))}
	padded := opt.PadTo(dim, n) // the whole world: divides at both communicator levels
	s.flatW, s.flatG = nn.FlattenParams(params, padded)
	if cfg.Precision == BF16 {
		s.wire = make([]uint16, padded)
	}
	if err := s.layBuckets(bucketElemsFor(cfg.BucketBytes, run.plan.DDPBucketBytes,
		run.plan.Strategy == fsdp.DDP, cfg.Precision.WireBytes(), n, padded)); err != nil {
		return nil, err
	}

	// The weights start as the fp32 state every rank must agree on: rank
	// 0's initialization, broadcast over whatever each replica's own init
	// left in its windows, or the resumed master snapshot — identical on
	// every rank already, so resuming sends nothing — with the
	// deterministic mask stream fast-forwarded past the completed steps
	// (micro-batches under accumulation).
	if resume == nil {
		run.world.Subgroup(strided(0, n, 1)).Do(r, dist.Collective{Op: dist.OpBroadcast, Buf: s.flatW[:dim]}).Wait()
	} else {
		copy(s.flatW, resume.Master)
		model.SkipMasks(resume.Step*run.accum, cfg.BatchSize)
	}
	s.master = s.flatW
	if cfg.Precision == BF16 {
		s.scaler = opt.NewLossScaler(cfg.LossScale.Init, cfg.LossScale.Growth,
			cfg.LossScale.Backoff, cfg.LossScale.Interval)
		// The whole working copy (own spans included) is bf16-valued so
		// every rank computes on identical weights.
		s.master = make([]float32, opt.SpansLen(s.own))
		opt.GatherSpans(s.master, s.flatW, s.own)
		tensor.RoundBF16(s.flatW, s.flatW)
		if s.sharded {
			s.image = s.wire
			s.refreshImage()
		}
	}
	s.optim = opt.NewShardedAdamWSpans(params, cfg.WeightDecay, s.own)
	if resume != nil {
		s.optim.RestoreMoments(resume.OptM, resume.OptV)
		s.optim.SetStep(resume.OptStep)
		if s.scaler != nil {
			s.scaler.Restore(resume.LossScale, resume.ScaleGoodSteps)
		}
	}
	return s, nil
}

// train runs the rank's epoch loop from run.startEpoch to cfg.Epochs
// and captures the end-of-run state.
func (s *rankState) train() {
	run, cfg, r, model := s.run, &s.run.cfg, s.r, s.model
	n, accum, res := cfg.Ranks, run.accum, run.res
	local := cfg.BatchSize / n
	loader := dataload.New(
		dataload.TrainSplit{D: run.ds, Count: run.ds.TrainCount, ImgLen: run.ds.Gen.ImageLen()},
		dataload.Config{
			BatchSize:  local,
			Workers:    cfg.Workers,
			Shuffle:    true,
			DropLast:   true,
			Seed:       cfg.Seed ^ 0xDA7A,
			ShardRank:  r.ID(),
			ShardWorld: n,
		})
	loader.SkipEpochs(run.startEpoch)

	reshard := s.sharded && run.plan.RegathersInBackward()
	invN := float32(1) / float32(n)
	invAccum := float64(1) / float64(accum)
	loopStart := time.Now()
	step := run.startEpoch * run.stepsPerEpoch
	for epoch := run.startEpoch; epoch < cfg.Epochs; epoch++ {
		var epochLoss metrics.Meter
		micro := 0
		var lossSum float64
		for batch := range loader.EpochN(run.stepsPerEpoch * accum) {
			// All ranks draw the global batch's masks from their
			// lock-step streams and keep the local slice, so the mask
			// sequence matches the single-rank run.
			keep := model.DrawMasksRange(cfg.BatchSize, r.ID()*local, (r.ID()+1)*local)
			if micro == 0 {
				nn.ZeroGrads(s.params)
			}
			final := micro == accum-1
			lossSum += model.ForwardWithMask(batch.Images, batch.Size, keep)
			if reshard && final {
				// Reshard once per optimizer step, after the window's
				// last forward: zero every parameter span this rank does
				// not own, in the live tensors, exactly as FULL_SHARD
				// frees gathered units. Backward reads those tensors, so
				// the all-gather must genuinely restore the dropped spans
				// — if it moved wrong bytes, the zeros would stay in the
				// model and the loss trajectory (checked against the
				// single-rank run) would diverge.
				opt.ScrubOutsideSpans(s.flatW, s.own)
				s.allGatherParams()
			}
			if !final {
				// Accumulation micro-step: gradients pile up in the
				// parameter tensors; no collective fires and the sharded
				// modes keep the assembled parameters resident (the
				// executed no_sync window).
				model.BackwardStep()
				micro++
				continue
			}

			// Final micro-step of the window: the layer-granular backward
			// launches each bucket's collective the moment its
			// accumulated gradients are final. The 1/(n·accum) scale
			// turns the cross-rank sum of per-micro means into the global
			// mean the single-rank run computes; BF16 additionally
			// multiplies in the loss scale before gradients hit the
			// narrow wire.
			gScale, invScale := invN, float32(1)
			if s.scaler != nil {
				// The scale the gradients will carry; Update may move
				// scaler.Scale before the unscale happens.
				gScale = float32(s.scaler.Scale) * invN
				invScale = 1 / float32(s.scaler.Scale)
			}
			if accum > 1 {
				gScale *= 1 / float32(accum)
			}
			s.beginStep(gScale)
			model.BackwardStepLayers(s.onUnit)
			s.finishBackward()
			s.step(run.sched.LR(step), invScale)

			t0 := time.Now()
			gLoss := r.AllReduceScalar(lossSum*invAccum) / float64(n)
			s.exposed += time.Since(t0)
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
					epoch+1, cfg.Epochs, epochLoss.Mean(), run.sched.LR(step-1), n, run.plan.Name(), cfg.Precision)
			}
		}
		// Periodic checkpoint at the epoch boundary: all ranks write
		// their state spans, a barrier orders the writes before rank 0
		// snapshots, a second barrier holds the next epoch's writes back
		// until the snapshot is taken. No collectives — the fault plan's
		// indices are checkpoint-invariant.
		if ce := cfg.CheckpointEvery; ce > 0 && (epoch+1)%ce == 0 && epoch+1 < cfg.Epochs {
			ckStart := time.Now()
			s.capture()
			r.Barrier()
			if r.ID() == 0 {
				s.stamp(step, epoch+1)
				if cfg.OnCheckpoint != nil {
					cfg.OnCheckpoint(res.State.clone(), time.Since(ckStart))
				}
			}
			r.Barrier()
		}
	}

	// End-of-run state: Run's join orders the owner ranks' writes before
	// the caller reads it.
	s.capture()
	if r.ID() == 0 {
		res.Steps = step - run.startEpoch*run.stepsPerEpoch
		// One source of truth for the decomposition (incl. the
		// negative-residual clamp): the trace constructor.
		b := trace.NewExecBreakdown("", res.Steps, time.Since(loopStart).Seconds(), s.exposed.Seconds())
		res.WallSec = b.WallSec
		res.ExposedCommSec = b.ExposedCommSec
		res.ComputeSec = b.ComputeSec
		s.stamp(step, cfg.Epochs)
		if s.scaler != nil {
			res.FinalLossScale = s.scaler.Scale
			res.ScaleBackoffs = s.scaler.Backoffs()
			res.SkippedSteps = s.scaler.Skipped()
		}
	}
}

// step is the optimizer phase of one step, after finishBackward left
// the reduced gradient of the owned spans in flatG — the same sequence
// for every strategy and precision, in two passes over the owned spans
// of the flat buffers, in place. Pass 1 (reduceGrads) reads the
// gradient once: overflow verdict, unscale and Σg². Pass 2 is the AdamW
// kernel on the fp32 master with the clip factor folded into its read
// of the gradient and, under BF16, the rounded working weights written
// beside the master (and, sharded, their bf16 image into the wire
// slots the all-gather publishes). Sharded, each bucket's all-gather of
// the working weights, which the model's tensors are windows of, is
// issued as soon as AdamW has written the rank's piece of it, and all
// are waited at the end. invScale undoes the loss scale the gradients
// were reduced with. From finishBackward until the next ZeroGrads the
// parameters' Grad tensors hold the reduced gradient on the owned spans
// and reduce-scatter residue elsewhere; nothing may read them as local
// gradients.
func (s *rankState) step(lr float64, invScale float32) {
	clip := s.run.cfg.ClipNorm
	sq, overflow := s.reduceGrads(invScale, clip > 0)
	skip := false
	if s.scaler != nil {
		if s.sharded {
			// Unsharded, the all-reduce left every rank bit-identical
			// gradients and the local verdict is already the global one.
			t0 := time.Now()
			overflow = s.r.AllReduceScalar(boolFlag(overflow)) > 0
			s.exposed += time.Since(t0)
		}
		skip = s.scaler.Update(overflow)
	}
	if !skip {
		// Global-norm clipping (0 disables): the owned spans' Σg² is the
		// global sum when the rank owns everything; the members of a
		// shard group hold disjoint spans covering the flat space, so
		// theirs all-reduce to it.
		gScale := float32(1)
		if clip > 0 {
			if s.sharded {
				t0 := time.Now()
				sq = s.shardGroup.AllReduceScalar(s.r, sq)
				s.exposed += time.Since(t0)
			}
			if norm := math.Sqrt(sq); norm > clip && norm > 0 {
				gScale = float32(clip / norm)
			}
		}
		var working []float32 // FP32 updates flatW itself
		if s.scaler != nil {
			working = s.flatW
		}
		var spanDone func(int)
		if s.sharded {
			// Owned span k is bucket k's piece (a group of two or more
			// never owns adjacent pieces, so none merged): its gather is
			// issued the moment AdamW has written it and runs while AdamW
			// updates the pieces above it.
			spanDone = s.gather
		}
		s.optim.StepScaled(lr, s.master, s.flatG, gScale, working, s.image, spanDone)
	} else if s.sharded {
		s.refreshImage()
		for k := range s.buckets {
			s.gather(k)
		}
	}
	if s.sharded {
		// Wait for the re-assembled parameters. For the resharded
		// strategies this is the next forward's parameter gather executed
		// eagerly (the executed analog of FSDP's prefetching). It runs
		// even on skipped steps — idempotently, the working copy being
		// unchanged — so every optimizer step moves exactly the wire
		// bytes fsdp.TrafficPerStep charges and ends with bit-identical
		// assembled replicas.
		s.wait()
	}
}

// refreshImage rewrites the owned spans of the bf16 image from the
// working weights (a no-op unless sharded BF16): at rank init and
// resume, and on a skipped step, where AdamW wrote no image and
// HYBRID_SHARD's replica all-reduce has reused those wire slots for
// gradient bits. The working copy is bf16-valued, so this is its exact
// image.
func (s *rankState) refreshImage() {
	if s.image == nil {
		return
	}
	for _, sp := range s.own {
		tensor.ToBF16(s.image[sp.Lo:sp.Hi], s.flatW[sp.Lo:sp.Hi])
	}
}

// reduceGrads is step's one read of the owned gradient spans. Under
// BF16 it takes the overflow verdict on the values as reduced, writes
// them back unscaled (harmless on a step the verdict then skips: the
// next window's ZeroGrads clears flatG) and sums the squares of what it
// wrote; under FP32 it only sums, and only if the step clips. Spans
// enter the accumulator at their flat offsets, so the sum is
// nn.GradL2Norm's bit for bit however the space is bucketed (the zero
// pad tail adds nothing).
func (s *rankState) reduceGrads(invScale float32, clips bool) (sumSq float64, overflow bool) {
	var sq tensor.SumSq
	for _, sp := range s.own {
		if g := s.flatG[sp.Lo:sp.Hi]; s.scaler != nil {
			overflow = sq.AddScaled(g, invScale, sp.Lo) || overflow
		} else if clips {
			sq.Add(g, sp.Lo)
		}
	}
	return sq.Sum(), overflow
}

// capture writes this rank's share of the canonical flat training state
// into res.State: the ranks of the first shard group hold disjoint
// spans covering the whole flat space (rank 0 alone when nothing is
// sharded); each span is clipped at the unpadded dimension, so the pad
// tail never reaches the state. The caller separates these writes from
// rank 0's read (end of run: Run's join; mid-run checkpoints: an
// explicit barrier). A run that captures no state skips it.
func (s *rankState) capture() {
	st := s.run.res.State
	if st == nil || s.r.ID() >= s.shardGroup.Size() {
		return
	}
	dim, off := len(st.Master), 0
	for _, sp := range s.own {
		src := s.flatW[sp.Lo:sp.Hi]
		if s.scaler != nil {
			src = s.master[off : off+sp.Len()]
		}
		copy(st.Master[min(sp.Lo, dim):min(sp.Hi, dim)], src)
		off += sp.Len()
	}
	s.optim.CopyMoments(st.OptM, st.OptV)
	if s.r.ID() == 0 {
		st.OptStep = s.optim.StepCount()
	}
}

// stamp fills the scalar fields only rank 0 owns: the progress
// counters, numeric mode, accumulation window and the loss-scaler
// freeze.
func (s *rankState) stamp(stepNow, epochsDone int) {
	st := s.run.res.State
	if st == nil {
		return
	}
	st.Step = stepNow
	st.Epoch = epochsDone
	st.Precision = s.run.cfg.Precision
	st.AccumSteps = s.run.accum
	if s.scaler != nil {
		st.LossScale = s.scaler.Scale
		st.ScaleGoodSteps = s.scaler.GoodSteps()
	}
}

// boolFlag maps an overflow verdict onto the scalar all-reduce domain.
func boolFlag(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
