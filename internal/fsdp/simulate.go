package fsdp

import (
	"fmt"
	"math"

	"repro/internal/comm"
	"repro/internal/hw"
	"repro/internal/perfmodel"
	"repro/internal/sim"
)

// strategySchedule holds the per-strategy facts of the simulated
// schedule that Plan's ShardRanks and RegathersInBackward do not own.
//
// hostOverhead is a calibration constant per collective call for the
// implementation overhead the α–β model does not capture. The values
// are *relative* knobs: DDP pays the most (bucket management and
// gradient copy-out), NO_SHARD pays FSDP's flat-parameter bookkeeping,
// the sharded paths are the leanest — the ordering the paper observes
// in Figure 3.
//
// postBackward marks NO_SHARD, whose gradient all-reduces run in FSDP's
// synchronous post-backward path with no compute overlap: the
// implementation difference from HYBRID_1GPU (the same algorithm with
// overlapped per-unit reduction) that the paper observes in Figures 1
// and 3.
var strategySchedule = [...]struct {
	hostOverhead float64
	postBackward bool
}{
	DDP:         {35e-6, false},
	NoShard:     {30e-6, true},
	FullShard:   {15e-6, false},
	ShardGradOp: {15e-6, false},
	HybridShard: {15e-6, false},
}

// Calibration constants for effects the α–β model does not capture.
const (
	// congestion penalties applied when limit_all_gathers is off:
	// unbounded in-flight gathers contend for channels and registration.
	noLimitBWFactor    = 0.80
	noLimitExtraLaunch = 40e-6

	// stragglerPerDoubling inflates collective time per doubling of the
	// node count (OS noise, adaptive-routing congestion at scale).
	stragglerPerDoubling = 0.04

	// frameworkBytes is the constant per-GPU footprint (runtime, RCCL
	// buffers, fragmentation).
	frameworkBytes = 1.5e9

	// pipelineOverhead is the small residual cost of running the real
	// data pipeline versus cached synthetic data when not IO-bound
	// (Figure 1 "real" vs "syn").
	pipelineOverhead = 0.03
)

// Result is the outcome of simulating one training step.
type Result struct {
	Plan  Plan
	Nodes int
	World int

	// StepTime is the modeled wall-clock per optimizer step (seconds).
	StepTime float64
	// ImagesPerSec is the aggregate training throughput.
	ImagesPerSec float64

	// ComputeTime is the compute-stream busy time per step: the step
	// with its communication removed (Figure 1's "syn no comm").
	ComputeTime float64
	// CommTime is the communication-stream busy time per step.
	CommTime float64
	// ExposedComm is communication time not hidden behind compute.
	ExposedComm float64
	// CommCalls is the number of collective calls per step.
	CommCalls int
	// CommVolume is the per-rank bytes put on the wire per step.
	CommVolume float64

	// MemoryPerGPU is the modeled peak memory per GCD (bytes).
	MemoryPerGPU float64
	// Fits reports whether MemoryPerGPU is within HBM capacity.
	Fits bool

	// AvgPowerPerGPU is the modeled average power draw per GCD (watts).
	AvgPowerPerGPU float64
	// GPUUtilization is the modeled busy fraction of the GCD.
	GPUUtilization float64
}

// Simulate models one training step of workload w on nodes Frontier
// nodes under the given plan.
func Simulate(w perfmodel.Workload, m hw.Machine, nodes int, plan Plan) (Result, error) {
	if err := w.Validate(); err != nil {
		return Result{}, err
	}
	if nodes < 1 || nodes > m.MaxNodes {
		return Result{}, fmt.Errorf("fsdp: node count %d outside [1, %d]", nodes, m.MaxNodes)
	}
	world := m.TotalGPUs(nodes)
	if err := plan.Validate(world); err != nil {
		return Result{}, err
	}

	units := w.Units()
	l := len(units)
	eff := m.EffectiveFLOPS()
	// FSDP reduces gradients in the compute dtype (bf16); DDP keeps
	// master-width (fp32) gradient buckets — one of the implementation
	// differences the paper alludes to when DDP falls behind FSDP at
	// larger models. The width comes from the workload's Precision, not
	// a hard-coded element size.
	cBytes := w.Prec.GradReduceBytes(plan.Strategy == DDP)
	schedule := strategySchedule[plan.Strategy]

	// The calibration constants are asserted, Frontier-shaped
	// overheads; a Calibrated machine's measured α–β already contains
	// every per-call fixed cost, so they are disabled wholesale there
	// (see hw.Machine.Calibrated).
	straggle := 1.0
	hostOverhead := schedule.hostOverhead
	if m.Calibrated {
		hostOverhead = 0
	} else if nodes > 1 {
		straggle += float64(stragglerPerDoubling * math.Log2(float64(nodes)))
	}

	// Shard groups are consecutive ranks, at most a node's worth on each
	// node; replica groups stride across them, one rank per shard group
	// on a node. A sharded plan's forward needs per-unit all-gathers.
	shardRanks := plan.ShardRanks(world)
	replicaRanks := world / shardRanks
	sharded := shardRanks > 1
	shardLink := m.Link(shardRanks, shardRanks)
	shardLink.Launch += hostOverhead
	replicaLink := m.Link(replicaRanks, m.GPUsPerNode/min(shardRanks, m.GPUsPerNode))
	replicaLink.Launch += hostOverhead
	gatherLink := shardLink
	if !m.Calibrated && !plan.LimitAllGathers && sharded {
		gatherLink.Bandwidth *= noLimitBWFactor
		gatherLink.Launch += noLimitExtraLaunch
	}

	e := sim.New()
	comp := e.Resource("compute")
	cm := e.Resource("comm")

	var commCalls int
	var commVolume float64
	addComm := func(c comm.Cost, deps ...*sim.Task) *sim.Task {
		commCalls++
		commVolume += c.WireBytes
		return e.Task("collective", cm, c.Time*straggle, deps...)
	}
	gather := func(i int, deps ...*sim.Task) *sim.Task {
		return addComm(comm.AllGather(float64(units[i].Params)*cBytes, shardRanks, gatherLink), deps...)
	}
	// reduce issues one gradient bucket by the executed schedule's rule
	// (internal/train's rankState.launch): reduce-scatter over the
	// shard group, then all-reduce the owned shard over the replica
	// group. A one-member group moves nothing, but a bucket always
	// issues at least one call.
	reduce := func(b gradBucket, dep *sim.Task) *sim.Task {
		var t *sim.Task
		if shardRanks > 1 {
			t = addComm(comm.ReduceScatter(b.bytes, shardRanks, shardLink), dep)
			dep = t
		}
		if replicaRanks > 1 || t == nil {
			t = addComm(comm.AllReduce(b.bytes/float64(shardRanks), replicaRanks, replicaLink), dep)
		}
		return t
	}

	// ------------------------------ forward ------------------------------
	cf := make([]*sim.Task, l)
	for i := 0; i < l; i++ {
		var deps []*sim.Task
		if sharded {
			var agDeps []*sim.Task
			if plan.LimitAllGathers && i >= 2 {
				// Rate limiter: at most two gathered units ahead of compute.
				agDeps = append(agDeps, cf[i-2])
			}
			deps = append(deps, gather(i, agDeps...))
		}
		if i > 0 {
			deps = append(deps, cf[i-1])
		}
		cf[i] = e.Task("forward", comp, units[i].FwdFLOPs/eff, deps...)
	}

	// ------------------------------ backward -----------------------------
	//
	// Submission order on the serial communication stream is what the
	// prefetch policy controls:
	//
	//	BACKWARD_PRE:  unit i−1's gather is submitted *before* unit i's
	//	               reduce-scatter (issued as unit i's backward
	//	               compute starts), so it overlaps cb[i];
	//	BACKWARD_POST: the gather is submitted after unit i's
	//	               reduce-scatter, issued once cb[i] completes;
	//	None:          the gather additionally waits for unit i's
	//	               reduce-scatter to finish — full serialization.
	cb := make([]*sim.Task, l)
	agb := make([]*sim.Task, l)
	regather := plan.RegathersInBackward()
	if regather {
		// The first backward gather can only issue once forward ends.
		agb[l-1] = gather(l-1, cf[l-1])
	}
	buckets := gradBuckets(plan, units, cBytes)
	next := 0 // buckets[next:] are not issued yet
	var lastSync *sim.Task
	for i := l - 1; i >= 0; i-- {
		prev := cf[l-1]
		if i+1 < l {
			prev = cb[i+1]
		}
		deps := []*sim.Task{prev}
		if agb[i] != nil {
			deps = append(deps, agb[i])
		}
		cb[i] = e.Task("backward", comp, units[i].BwdFLOPs/eff, deps...)

		// BACKWARD_PRE: prefetch the next unit's parameters ahead of
		// this unit's reduce-scatter in stream order.
		if regather && i > 0 && plan.Prefetch == BackwardPre {
			agb[i-1] = gather(i-1, prev) // issued when cb[i] starts
		}
		for ; !schedule.postBackward && next < len(buckets) && buckets[next].unit == i; next++ {
			lastSync = reduce(buckets[next], cb[i])
		}
		// BACKWARD_POST / None: the next gather is submitted after this
		// unit's gradient sync (a regathering plan reduces every unit
		// here, so lastSync is unit i's).
		if regather && i > 0 && plan.Prefetch != BackwardPre {
			dep := cb[i]
			if plan.Prefetch == PrefetchNone {
				dep = lastSync
			}
			agb[i-1] = gather(i-1, dep)
		}
	}
	// A postBackward plan's buckets run after the whole backward pass,
	// in ascending unit order.
	for k := len(buckets) - 1; k >= next; k-- {
		lastSync = reduce(buckets[k], cb[0])
	}

	// Optimizer step: elementwise over the local state shard, once every
	// gradient is reduced (the stream is FIFO, so the last sync ends last).
	stateLocal := float64(w.TotalParams()) * w.Prec.StateBytesPerParam / float64(shardRanks)
	e.Task("opt", comp, 3*stateLocal/m.HBMBandwidth, cb[0], lastSync)

	makespan := e.Makespan()
	computeBusy := e.BusyTime(comp)
	commBusy := e.BusyTime(cm)
	exposed := makespan - computeBusy
	if exposed < 0 {
		exposed = 0
	}
	overlapped := commBusy - exposed
	if overlapped < 0 {
		overlapped = 0
	}
	// Collective kernels steal compute units while overlapped.
	stepTime := makespan + float64(m.SMContention*overlapped)

	res := Result{
		Plan:         plan,
		Nodes:        nodes,
		World:        world,
		StepTime:     stepTime,
		ImagesPerSec: float64(world*w.LocalBatch) / stepTime,
		ComputeTime:  computeBusy,
		CommTime:     commBusy,
		ExposedComm:  exposed,
		CommCalls:    commCalls,
		CommVolume:   commVolume,
	}
	res.MemoryPerGPU = MemoryPerGPU(w, m, nodes, plan)
	res.Fits = res.MemoryPerGPU <= m.HBMBytesPerGPU

	util := computeBusy / stepTime
	if util > 1 {
		util = 1
	}
	exposedFrac := exposed / stepTime
	if exposedFrac > 1 {
		exposedFrac = 1
	}
	// RCCL kernels occupy compute units, so rocm-smi reports near-100%
	// utilization even during exposed communication (the paper's Fig 4
	// observation); power, however, sags while only moving bytes.
	res.GPUUtilization = math.Min(1, util+float64(0.9*exposedFrac))
	res.AvgPowerPerGPU = m.IdlePower +
		float64((m.MaxPower-m.IdlePower)*(float64(0.92*util)+float64(m.CommPowerFrac*exposedFrac)))
	return res, nil
}

// gradBucket is one gradient reduction of a step: bytes of gradient
// that are ready once unit's backward has run.
type gradBucket struct {
	unit  int
	bytes float64
}

// gradBuckets lists one step's gradient reductions, width bytes per
// element, in completion (descending-unit) order. Every FSDP plan
// reduces one unit per bucket. DDP streams gradients into fixed
// DDPBucketBytes buckets, each launching once the unit that fills it
// has computed its gradient, and flushes the remainder with unit 0. A
// large unit fills several buckets: the per-call overhead this
// multiplies is the paper's explanation for DDP falling behind FSDP as
// models grow (Section IV-C).
func gradBuckets(plan Plan, units []perfmodel.Unit, width float64) []gradBucket {
	var buckets []gradBucket
	pending := 0.0
	for i := len(units) - 1; i >= 0; i-- {
		bytes := float64(float64(units[i].Params) * width)
		if plan.Strategy != DDP {
			buckets = append(buckets, gradBucket{i, bytes})
			continue
		}
		for pending += bytes; pending >= plan.DDPBucketBytes; pending -= plan.DDPBucketBytes {
			buckets = append(buckets, gradBucket{i, plan.DDPBucketBytes})
		}
	}
	if pending > 0 {
		buckets = append(buckets, gradBucket{0, pending})
	}
	return buckets
}

// RealThroughput composes a synthetic-compute result with the IO model:
// the application runs at the slower of the two pipelines, with a small
// residual overhead when compute-bound (the paper's "real" curve).
func RealThroughput(syn Result, ioIPS float64) float64 {
	synIPS := syn.ImagesPerSec * (1 - pipelineOverhead)
	if ioIPS < synIPS {
		return ioIPS
	}
	return synIPS
}
