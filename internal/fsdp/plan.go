// Package fsdp simulates PyTorch Fully Sharded Data Parallel training
// on the modeled Frontier machine. It reproduces FSDP's observable
// behaviour — the per-unit all-gather / reduce-scatter / all-reduce
// schedule of each sharding strategy, backward prefetching policies,
// the limit_all_gathers rate limiter, and DDP's fixed-size gradient
// buckets — as a discrete-event task graph over one compute stream and
// one communication stream per rank (ranks are symmetric, so one
// representative rank is simulated).
//
// Gradient sync is one rule for every strategy, the executed
// schedule's (internal/train): each gradient bucket reduce-scatters
// over the shard group, then all-reduces its shard over the replica
// group, and a one-member group moves nothing. Strategy reaches the
// schedule only as data — the facts on Plan (the Section III-C matrix
// and what each strategy shards are documented once there), DDP's
// bucket size and fp32 gradient width, and Simulate's per-strategy
// table of host overheads and NO_SHARD's post-backward issue point.
package fsdp

import (
	"fmt"
)

// Strategy enumerates the distributed strategies of the paper.
type Strategy int

// Strategies studied in the paper.
const (
	DDP Strategy = iota
	NoShard
	FullShard
	ShardGradOp
	HybridShard
)

// String returns the paper's name for the strategy.
func (s Strategy) String() string {
	switch s {
	case DDP:
		return "DDP"
	case NoShard:
		return "NO_SHARD"
	case FullShard:
		return "FULL_SHARD"
	case ShardGradOp:
		return "SHARD_GRAD_OP"
	case HybridShard:
		return "HYBRID_SHARD"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Prefetch enumerates FSDP's backward prefetch policies (Section IV-B).
type Prefetch int

// Prefetch policies.
const (
	PrefetchNone Prefetch = iota
	BackwardPost
	BackwardPre
)

// String names the policy as in the paper.
func (p Prefetch) String() string {
	switch p {
	case PrefetchNone:
		return "None"
	case BackwardPost:
		return "BACKWARD_POST"
	case BackwardPre:
		return "BACKWARD_PRE"
	default:
		return fmt.Sprintf("Prefetch(%d)", int(p))
	}
}

// Plan is one distributed-training configuration. The strategies of the
// paper's Section III-C matrix differ in exactly two facts, which
// ShardRanks and RegathersInBackward own — the simulator (Simulate,
// TrafficPerStep, MemoryPerGPU) and the executed training loop
// (internal/train.PretrainDistributed) both read them from here. The
// per-step column follows from them by the one gradient-sync rule
// (reduce-scatter over ShardRanks, all-reduce the shard over the
// world/ShardRanks replicas, a one-member group moving nothing):
//
//	plan                        ShardRanks  regathers  per optimizer step
//	DDP, NO_SHARD, HYBRID_1GPU  1           no         gradient all-reduce over the world
//	                                                   (DDP in DDPBucketBytes buckets);
//	                                                   every rank keeps the whole state
//	SHARD_GRAD_OP (ZeRO-1)      world       no         gradient reduce-scatter, sharded
//	                                                   optimizer, one parameter all-gather
//	FULL_SHARD (ZeRO-3)         world       yes        as SHARD_GRAD_OP, plus parameters
//	                                                   dropped after forward and gathered
//	                                                   again for backward
//	HYBRID_kGPUs (k>1)          k           yes        FULL_SHARD inside each k-rank group,
//	                                                   then a gradient-shard all-reduce
//	                                                   across the world/k replica groups
//
// Collectives run over ShardRanks-rank shard groups (consecutive ranks)
// and world/ShardRanks-rank replica groups (strided across them); flat
// buffers pad to a multiple of the world so they chunk uniformly on
// both.
type Plan struct {
	Strategy Strategy
	// GroupSize is the sharding-group size for HybridShard (the paper's
	// HYBRID_kGPUs); ignored otherwise.
	GroupSize       int
	Prefetch        Prefetch
	LimitAllGathers bool
	// DDPBucketBytes is DDP's gradient bucket size (PyTorch default
	// 25 MiB); ignored for FSDP strategies.
	DDPBucketBytes float64
}

// Name renders the paper's label for the plan (e.g. "HYBRID_2GPUs").
func (p Plan) Name() string {
	if p.Strategy == HybridShard {
		if p.GroupSize == 1 {
			return "HYBRID_1GPU"
		}
		return fmt.Sprintf("HYBRID_%dGPUs", p.GroupSize)
	}
	return p.Strategy.String()
}

// Validate checks the plan against a world size.
func (p Plan) Validate(world int) error {
	if world < 1 {
		return fmt.Errorf("fsdp: world size %d", world)
	}
	switch p.Strategy {
	case DDP:
		if p.DDPBucketBytes <= 0 {
			return fmt.Errorf("fsdp: DDP requires a positive bucket size")
		}
	case NoShard:
	case FullShard, ShardGradOp:
	case HybridShard:
		if p.GroupSize < 1 {
			return fmt.Errorf("fsdp: hybrid group size %d", p.GroupSize)
		}
		if world%p.GroupSize != 0 {
			return fmt.Errorf("fsdp: world %d not divisible by group %d", world, p.GroupSize)
		}
	default:
		return fmt.Errorf("fsdp: unknown strategy %v", p.Strategy)
	}
	return nil
}

// ShardRanks returns how many ranks each parameter is sharded across.
func (p Plan) ShardRanks(world int) int {
	switch p.Strategy {
	case FullShard, ShardGradOp:
		return world
	case HybridShard:
		return p.GroupSize
	default:
		return 1
	}
}

// RegathersInBackward reports whether parameters are dropped after
// forward and gathered again for backward (FULL_SHARD, HYBRID_kGPUs
// with k>1); the other strategies keep them resident.
func (p Plan) RegathersInBackward() bool {
	return p.Strategy == FullShard || p.Strategy == HybridShard && p.GroupSize > 1
}

// DefaultDDP returns the Figure 3 DDP baseline configuration.
func DefaultDDP() Plan {
	return Plan{Strategy: DDP, DDPBucketBytes: 25 << 20, Prefetch: BackwardPost}
}

// BestPractice returns the configuration Section IV-E recommends for
// FSDP strategies: BACKWARD_PRE prefetch with limit_all_gathers.
func BestPractice(s Strategy, group int) Plan {
	return Plan{
		Strategy:        s,
		GroupSize:       group,
		Prefetch:        BackwardPre,
		LimitAllGathers: true,
		DDPBucketBytes:  25 << 20,
	}
}
