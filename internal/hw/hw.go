// Package hw models the hardware the paper measures on: the Frontier
// supercomputer at OLCF. A Machine captures the quantities the
// performance simulation needs — GCD count and memory, effective
// training FLOP rate, the three bandwidth tiers of the interconnect
// (same-package GCD pair via Infinity Fabric, cross-package intra-node
// Infinity Fabric, inter-node Slingshot-11), per-hop collective
// latencies, and a simple power model.
//
// Published constants are taken from the paper's Section III-B and the
// MI250X datasheet; calibration constants (MFU, latencies, contention)
// are chosen once so that absolute throughputs land in the paper's
// reported range (≈1.5k images/s for ViT-5B on 32 nodes) and are
// documented in EXPERIMENTS.md. The *shapes* of all figures come from
// the model structure, not from these constants.
package hw

import "repro/internal/comm"

// Machine describes one homogeneous GPU cluster.
type Machine struct {
	Name        string
	MaxNodes    int
	GPUsPerNode int // GCDs per node: the paper treats each GCD as a GPU

	// HBMBytesPerGPU is the memory capacity per GCD.
	HBMBytesPerGPU float64
	// HBMBandwidth is the per-GCD memory bandwidth (bytes/s), used for
	// optimizer-step and bucket-copy costs.
	HBMBandwidth float64

	// PeakMatrixFLOPS is the per-GCD peak throughput for training math.
	PeakMatrixFLOPS float64
	// MFU is the achieved fraction of peak for transformer training
	// (model FLOPs utilization).
	MFU float64

	// Bandwidths in bytes/s.
	PairBW             float64 // two GCDs of one MI250X package
	IntraNodeBW        float64 // Infinity Fabric between packages
	InterNodeBWPerNode float64 // Slingshot-11 NIC budget per node

	// Per-hop latencies for ring collectives (seconds).
	IntraHopLatency float64
	InterHopLatency float64
	// Per-chunk protocol overhead (bytes) for ring collectives on each
	// tier — see comm.Params.ChunkOverheadBytes.
	IntraChunkOverhead float64
	InterChunkOverhead float64
	// CollectiveLaunch is the fixed host-side cost per collective call.
	CollectiveLaunch float64

	// SMContention is the fractional compute slowdown while collective
	// kernels run concurrently (RCCL consumes compute units).
	SMContention float64

	// Power model per GCD (watts).
	IdlePower float64
	MaxPower  float64
	// CommPowerFrac scales how much communication-only activity
	// contributes to power relative to full compute.
	CommPowerFrac float64

	// Calibrated marks a machine whose constants were *measured* on a
	// live host (internal/calib builds these from a HardwareProfile)
	// rather than asserted from datasheets. The FSDP simulator then
	// skips the Frontier-specific fudge constants — per-strategy host
	// overheads, the limit_all_gathers congestion penalty and the
	// at-scale straggler inflation — because a measured collective α
	// already contains every end-to-end fixed cost of a call on that
	// host. False (the default) preserves the published-figure path
	// bit for bit.
	Calibrated bool
}

// Frontier returns the machine model for the paper's system:
// 9408 nodes, one 64-core EPYC plus four MI250X (8 GCDs) per node,
// 64 GB HBM per GCD, Infinity Fabric GPU-GPU at 50 GB/s,
// Slingshot-11 at 100 GB/s per node.
func Frontier() Machine {
	return Machine{
		Name:        "Frontier",
		MaxNodes:    9408,
		GPUsPerNode: 8,

		HBMBytesPerGPU: 64e9,
		HBMBandwidth:   1.6e12,

		// MI250X: 383 TFLOPS fp16/bf16 matrix per module → 191.5 per GCD.
		PeakMatrixFLOPS: 191.5e12,
		MFU:             0.22,

		PairBW:             200e9, // in-package Infinity Fabric
		IntraNodeBW:        50e9,  // paper: IF GPU-GPU 50 GB/s
		InterNodeBWPerNode: 100e9, // paper: Slingshot-11 100 GB/s

		IntraHopLatency:    1.5e-6,
		InterHopLatency:    2e-6,
		IntraChunkOverhead: 8e3,
		InterChunkOverhead: 24e3,
		CollectiveLaunch:   2e-5,

		SMContention: 0.12,

		IdlePower:     90,
		MaxPower:      280, // 560 W per MI250X module / 2 GCDs
		CommPowerFrac: 0.35,
	}
}

// DefaultHost returns an asserted laptop-class single host for the
// serving stack's default batch-latency curve: one engine, no
// interconnect to speak of, constants round enough to read p50/p99
// tables against. Like Frontier these are asserted, not measured —
// internal/calib's MachineFor replaces them with a live profile, and
// Calibrated stays false here so consumers can tell the difference.
func DefaultHost() Machine {
	return Machine{
		Name:        "asserted-host",
		MaxNodes:    1,
		GPUsPerNode: 1,

		HBMBytesPerGPU: 16e9,
		HBMBandwidth:   40e9,

		PeakMatrixFLOPS: 200e9, // a few AVX2 cores' worth of fp32 GEMM
		MFU:             0.5,

		PairBW:             10e9,
		IntraNodeBW:        10e9,
		InterNodeBWPerNode: 10e9,

		IntraHopLatency:    1e-6,
		InterHopLatency:    1e-6,
		IntraChunkOverhead: 4e3,
		InterChunkOverhead: 4e3,
		CollectiveLaunch:   3e-4,

		SMContention: 0,

		IdlePower:     10,
		MaxPower:      45,
		CommPowerFrac: 0.2,
	}
}

// EffectiveFLOPS returns the usable per-GCD training throughput.
func (m Machine) EffectiveFLOPS() float64 {
	return m.PeakMatrixFLOPS * m.MFU
}

// TotalGPUs returns the GCD count for a given node count.
func (m Machine) TotalGPUs(nodes int) int { return nodes * m.GPUsPerNode }

// InterBWPerGPU is the NIC share per GCD when every GCD on a node
// communicates across nodes simultaneously — the common case for the
// spanning collectives in this paper's workloads.
func (m Machine) InterBWPerGPU() float64 {
	return m.InterNodeBWPerNode / float64(m.GPUsPerNode)
}

// GroupBandwidth returns the effective ring bandwidth and per-hop
// latency for a collective over a group of the given size, given how
// the group's ranks are laid out (ranksPerNode of the group co-located
// on each node).
//
//   - group of 2 inside one package  → PairBW
//   - group within one node          → IntraNodeBW
//   - group spanning nodes           → NIC share (each node's boundary
//     link carries the ring stream; concurrent spanning groups from the
//     same node divide the NIC)
func (m Machine) GroupBandwidth(groupSize, ranksPerNode, concurrentSpanningGroups int) (bw, hopLat, chunkOverhead float64) {
	if groupSize <= 1 {
		return m.PairBW, 0, 0
	}
	if groupSize <= ranksPerNode {
		if groupSize == 2 {
			return m.PairBW, m.IntraHopLatency, m.IntraChunkOverhead
		}
		return m.IntraNodeBW, m.IntraHopLatency, m.IntraChunkOverhead
	}
	if concurrentSpanningGroups < 1 {
		concurrentSpanningGroups = 1
	}
	bw = m.InterNodeBWPerNode / float64(concurrentSpanningGroups)
	if bw > m.IntraNodeBW {
		bw = m.IntraNodeBW
	}
	return bw, m.InterHopLatency, m.InterChunkOverhead
}

// Link returns the ring link of a collective over a group of ranks
// laid out ranksPerNode to a node (clamped to [1, min(ranks,
// GPUsPerNode)]): GroupBandwidth's tier with every GPU of a node
// sharing its NIC, and the per-call launch cost.
func (m Machine) Link(ranks, ranksPerNode int) comm.Params {
	rpn := max(1, min(ranksPerNode, ranks, m.GPUsPerNode))
	bw, lat, chunk := m.GroupBandwidth(ranks, rpn, m.GPUsPerNode)
	return comm.Params{Bandwidth: bw, HopLat: lat, Launch: m.CollectiveLaunch, ChunkOverheadBytes: chunk}
}
