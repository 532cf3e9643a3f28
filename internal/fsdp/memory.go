package fsdp

import (
	"repro/internal/hw"
	"repro/internal/perfmodel"
)

// MemoryPerGPU models peak per-GCD memory for one training step under
// the plan, reproducing the memory panels of Figures 3 and 4:
//
//   - parameter state (master weights + Adam moments + working copies,
//     Prec.StateBytesPerParam per parameter) divided by the shard factor;
//   - for sharded strategies, the transient gathered working set of up
//     to two in-flight units (prefetch depth) in compute precision;
//   - SHARD_GRAD_OP additionally keeps the full compute-precision
//     parameters resident between forward and backward;
//   - DDP adds its flat gradient-bucket copies;
//   - activations (strategy-independent) plus a constant framework
//     footprint.
func MemoryPerGPU(w perfmodel.Workload, m hw.Machine, nodes int, plan Plan) float64 {
	world := m.TotalGPUs(nodes)
	p := float64(w.TotalParams())
	state := float64(p * w.Prec.StateBytesPerParam)
	cBytes := w.Prec.ComputeBytes

	var maxUnit float64
	for _, u := range w.Units() {
		if b := float64(u.Params); b > maxUnit {
			maxUnit = b
		}
	}
	gathered := float64(2 * maxUnit * cBytes)

	base := w.ActivationBytes() + frameworkBytes
	shards := float64(plan.ShardRanks(world))
	switch {
	case plan.Strategy == DDP:
		// Replicated state + bucket copies of the gradients.
		return state + float64(p*cBytes) + base
	case plan.Strategy == ShardGradOp:
		// Compute-precision params stay resident; the rest shards.
		return float64(p*cBytes) + (state-float64(p*cBytes))/shards + base
	case plan.RegathersInBackward():
		return state/shards + gathered + base
	default:
		return state + base
	}
}

// MinGPUs returns the smallest power-of-two sharding-group size whose
// HYBRID configuration fits the workload in HBM, or 0 if even
// FULL_SHARD across maxNodes does not fit. This reproduces the paper's
// statements that ViT-3B is the largest single-GPU model, ViT-5B needs
// two GPUs, and ViT-15B needs four.
func MinGPUs(w perfmodel.Workload, m hw.Machine) int {
	for g := 1; g <= m.GPUsPerNode*2; g *= 2 {
		plan := BestPractice(HybridShard, g)
		nodes := (g + m.GPUsPerNode - 1) / m.GPUsPerNode
		if nodes < 1 {
			nodes = 1
		}
		if MemoryPerGPU(w, m, nodes, plan) <= m.HBMBytesPerGPU {
			return g
		}
	}
	return 0
}
