package fsdp

import (
	"fmt"
	"math"

	"repro/internal/comm"
	"repro/internal/hw"
	"repro/internal/perfmodel"
	"repro/internal/sim"
)

// Calibration constants for implementation overheads that the α–β
// model does not capture. They are *relative* knobs: DDP pays the most
// per collective call (bucket management and gradient copy-out),
// NO_SHARD pays FSDP's flat-parameter bookkeeping, HYBRID/FULL paths
// are the leanest — the ordering the paper observes in Figure 3.
const (
	hostOverheadDDP     = 35e-6
	hostOverheadNoShard = 30e-6
	hostOverheadSharded = 15e-6

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

	// ComputeTime is the compute-stream busy time per step.
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

	// The calibration constants below are asserted, Frontier-shaped
	// overheads; a Calibrated machine's measured α–β already contains
	// every per-call fixed cost, so they are disabled wholesale there
	// (see hw.Machine.Calibrated).
	straggle := 1.0
	if !m.Calibrated && nodes > 1 {
		straggle += stragglerPerDoubling * math.Log2(float64(nodes))
	}

	// Link parameters for the sharding-group collectives; a sharded
	// plan's forward needs per-unit all-gathers.
	shardRanks := plan.ShardRanks(world)
	sharded := shardRanks > 1
	shardRPN := shardRanks
	if shardRPN > m.GPUsPerNode {
		shardRPN = m.GPUsPerNode
	}
	shardBW, shardLat, shardChunk := m.GroupBandwidth(shardRanks, shardRPN, m.GPUsPerNode)

	// Replica-dimension all-reduce group (gradient sync).
	replicaRanks := world / shardRanks
	repRPN := m.GPUsPerNode / shardRPN
	if repRPN < 1 {
		repRPN = 1
	}
	if replicaRanks < repRPN {
		repRPN = replicaRanks
	}
	repBW, repLat, repChunk := m.GroupBandwidth(replicaRanks, repRPN, m.GPUsPerNode)

	hostOverhead := hostOverheadSharded
	switch plan.Strategy {
	case DDP:
		hostOverhead = hostOverheadDDP
	case NoShard:
		hostOverhead = hostOverheadNoShard
	}
	if m.Calibrated {
		hostOverhead = 0
	}

	agParams := comm.Params{Bandwidth: shardBW, HopLat: shardLat, ChunkOverheadBytes: shardChunk,
		Launch: m.CollectiveLaunch + hostOverhead}
	if !m.Calibrated && !plan.LimitAllGathers && sharded {
		agParams.Bandwidth *= noLimitBWFactor
		agParams.Launch += noLimitExtraLaunch
	}
	rsParams := comm.Params{Bandwidth: shardBW, HopLat: shardLat, ChunkOverheadBytes: shardChunk,
		Launch: m.CollectiveLaunch + hostOverhead}
	arParams := comm.Params{Bandwidth: repBW, HopLat: repLat, ChunkOverheadBytes: repChunk,
		Launch: m.CollectiveLaunch + hostOverhead}

	e := sim.New()
	comp := e.Resource("compute")
	cm := e.Resource("comm")

	var commCalls int
	var commVolume float64
	addComm := func(name string, c comm.Cost, deps ...*sim.Task) *sim.Task {
		commCalls++
		commVolume += c.WireBytes
		return e.Task(name, cm, c.Time*straggle, deps...)
	}

	unitBytes := func(i int) float64 { return float64(units[i].Params) * cBytes }

	// ------------------------------ forward ------------------------------
	cf := make([]*sim.Task, l)
	agf := make([]*sim.Task, l)
	for i := 0; i < l; i++ {
		var deps []*sim.Task
		if sharded {
			var agDeps []*sim.Task
			if plan.LimitAllGathers && i >= 2 {
				// Rate limiter: at most two gathered units ahead of compute.
				agDeps = append(agDeps, cf[i-2])
			}
			agf[i] = addComm(fmt.Sprintf("agf%d", i),
				comm.AllGather(unitBytes(i), shardRanks, agParams), agDeps...)
			deps = append(deps, agf[i])
		}
		if i > 0 {
			deps = append(deps, cf[i-1])
		}
		cf[i] = e.Task(fmt.Sprintf("cf%d", i), comp, units[i].FwdFLOPs/eff, deps...)
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
	lastComm := make([]*sim.Task, l) // final grad-sync comm task per unit
	regather := plan.RegathersInBackward()
	agb := make([]*sim.Task, l)

	agTask := func(i int, deps ...*sim.Task) *sim.Task {
		return addComm(fmt.Sprintf("agb%d", i),
			comm.AllGather(unitBytes(i), shardRanks, agParams), deps...)
	}
	if regather {
		// The first backward gather can only issue once forward ends.
		agb[l-1] = agTask(l-1, cf[l-1])
	}

	for i := l - 1; i >= 0; i-- {
		var cdeps []*sim.Task
		if agb[i] != nil {
			cdeps = append(cdeps, agb[i])
		}
		if i == l-1 {
			cdeps = append(cdeps, cf[l-1])
		} else {
			cdeps = append(cdeps, cb[i+1])
		}
		cb[i] = e.Task(fmt.Sprintf("cb%d", i), comp, units[i].BwdFLOPs/eff, cdeps...)

		// BACKWARD_PRE: prefetch the next unit's parameters ahead of
		// this unit's reduce-scatter in stream order.
		if regather && i > 0 && plan.Prefetch == BackwardPre {
			var dep []*sim.Task
			if i+1 < l {
				dep = append(dep, cb[i+1]) // issued when cb[i] starts
			} else {
				dep = append(dep, cf[l-1])
			}
			agb[i-1] = agTask(i-1, dep...)
		}

		// Gradient synchronization for this unit.
		switch {
		case plan.Strategy == DDP || plan.Strategy == NoShard:
			// Handled after the loop: DDP reduces fixed-size buckets, and
			// NO_SHARD's gradient all-reduce runs in FSDP's synchronous
			// post-backward path with no compute overlap — the
			// implementation difference from HYBRID_1GPU (identical
			// algorithm, overlapped per-unit reduction) that the paper
			// observes in Figures 1 and 3.
		case plan.Strategy == HybridShard && shardRanks == 1:
			lastComm[i] = addComm(fmt.Sprintf("ar%d", i),
				comm.AllReduce(unitBytes(i), world, arParams), cb[i])
		default:
			// Reduce-scatter inside the shard group, then all-reduce the
			// shard across the replica groups if there is more than one.
			rs := addComm(fmt.Sprintf("rs%d", i),
				comm.ReduceScatter(unitBytes(i), shardRanks, rsParams), cb[i])
			lastComm[i] = rs
			if replicaRanks > 1 {
				lastComm[i] = addComm(fmt.Sprintf("arr%d", i),
					comm.AllReduce(unitBytes(i)/float64(shardRanks), replicaRanks, arParams), rs)
			}
		}

		// BACKWARD_POST / None: the next gather is submitted after this
		// unit's gradient sync.
		if regather && i > 0 && plan.Prefetch != BackwardPre {
			var dep []*sim.Task
			if plan.Prefetch == PrefetchNone && lastComm[i] != nil {
				dep = append(dep, lastComm[i])
			} else {
				dep = append(dep, cb[i])
			}
			agb[i-1] = agTask(i-1, dep...)
		}
	}

	if plan.Strategy == NoShard {
		for i := 0; i < l; i++ {
			lastComm[i] = addComm(fmt.Sprintf("ar%d", i),
				comm.AllReduce(unitBytes(i), world, arParams), cb[i], cb[0])
		}
	}

	// DDP gradient buckets: gradients stream into fixed-size buckets in
	// backward (descending-unit) order; a bucket's all-reduce launches
	// when the unit that fills it has computed its gradient. Large
	// blocks split across multiple buckets — the per-call overhead this
	// multiplies is exactly the paper's explanation for DDP falling
	// behind FSDP as models grow (Section IV-C).
	if plan.Strategy == DDP {
		pending := 0.0
		bucket := 0
		for i := l - 1; i >= 0; i-- {
			pending += unitBytes(i)
			for pending >= plan.DDPBucketBytes {
				t := addComm(fmt.Sprintf("ddp_ar%d", bucket),
					comm.AllReduce(plan.DDPBucketBytes, world, arParams), cb[i])
				lastComm[i] = t
				pending -= plan.DDPBucketBytes
				bucket++
			}
		}
		if pending > 0 {
			lastComm[0] = addComm(fmt.Sprintf("ddp_ar%d", bucket),
				comm.AllReduce(pending, world, arParams), cb[0])
		}
	}

	// Optimizer step: elementwise over the local state shard.
	stateLocal := float64(w.TotalParams()) * w.Prec.StateBytesPerParam / float64(shardRanks)
	optDeps := []*sim.Task{cb[0]}
	for _, t := range lastComm {
		if t != nil {
			optDeps = append(optDeps, t)
		}
	}
	e.Task("opt", comp, 3*stateLocal/m.HBMBandwidth, optDeps...)

	makespan := e.Run()
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
	stepTime := makespan + m.SMContention*overlapped

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
	res.GPUUtilization = math.Min(1, util+0.9*exposedFrac)
	res.AvgPowerPerGPU = m.IdlePower +
		(m.MaxPower-m.IdlePower)*(0.92*util+m.CommPowerFrac*exposedFrac)
	return res, nil
}

// SimulateNoComm models the same step with all communication removed —
// the "syn no comm" curve of Figure 1.
func SimulateNoComm(w perfmodel.Workload, m hw.Machine, nodes int) (Result, error) {
	if err := w.Validate(); err != nil {
		return Result{}, err
	}
	world := m.TotalGPUs(nodes)
	eff := m.EffectiveFLOPS()
	var compute float64
	for _, u := range w.Units() {
		compute += (u.FwdFLOPs + u.BwdFLOPs) / eff
	}
	compute += 3 * float64(w.TotalParams()) * w.Prec.StateBytesPerParam / m.HBMBandwidth
	return Result{
		Nodes:        nodes,
		World:        world,
		StepTime:     compute,
		ComputeTime:  compute,
		ImagesPerSec: float64(world*w.LocalBatch) / compute,
	}, nil
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
